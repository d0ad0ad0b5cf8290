"""Unit tests for the instruction model."""

import dataclasses

from repro.isa import (
    FP_REG_BASE,
    Instruction,
    OpClass,
    is_fp_class,
    is_mem_class,
)
from repro.isa.instructions import BASE_LATENCY


def make(opclass=OpClass.IALU, **kw):
    defaults = dict(seq=0, pc=0x1000, opclass=opclass)
    defaults.update(kw)
    return Instruction(**defaults)


class TestOpClass:
    def test_every_opclass_has_latency(self):
        for opclass in OpClass:
            assert BASE_LATENCY[opclass] >= 1

    def test_mem_classes(self):
        assert is_mem_class(OpClass.LOAD)
        assert is_mem_class(OpClass.STORE)
        assert not is_mem_class(OpClass.IALU)
        assert not is_mem_class(OpClass.BRANCH)

    def test_fp_classes(self):
        assert is_fp_class(OpClass.FALU)
        assert is_fp_class(OpClass.FMUL)
        assert is_fp_class(OpClass.FDIV)
        assert not is_fp_class(OpClass.IMUL)

    def test_divides_are_slowest(self):
        assert BASE_LATENCY[OpClass.FDIV] > BASE_LATENCY[OpClass.FMUL]
        assert BASE_LATENCY[OpClass.IDIV] > BASE_LATENCY[OpClass.IMUL]


class TestInstruction:
    def test_load_properties(self):
        insn = make(OpClass.LOAD, mem_addr=0x2000, dst=5)
        assert insn.is_load and insn.is_mem and not insn.is_store

    def test_store_properties(self):
        insn = make(OpClass.STORE, mem_addr=0x2000)
        assert insn.is_store and insn.is_mem and not insn.is_load

    def test_backward_branch_detection(self):
        taken_back = make(OpClass.BRANCH, is_branch=True, taken=True,
                          target=0x0F00)
        assert taken_back.is_backward_branch

    def test_forward_branch_is_not_backward(self):
        fwd = make(OpClass.BRANCH, is_branch=True, taken=True,
                   target=0x2000)
        assert not fwd.is_backward_branch

    def test_not_taken_backward_branch_does_not_delimit(self):
        nt = make(OpClass.BRANCH, is_branch=True, taken=False,
                  target=0x0F00)
        assert not nt.is_backward_branch

    def test_self_branch_counts_as_backward(self):
        self_loop = make(OpClass.BRANCH, is_branch=True, taken=True,
                         target=0x1000)
        assert self_loop.is_backward_branch

    def test_base_latency_matches_opclass(self):
        assert make(OpClass.FDIV).base_latency == BASE_LATENCY[OpClass.FDIV]

    def test_encoding_is_four_bytes(self):
        assert make().encoding_bytes() == 4

    def test_fp_register_namespace(self):
        insn = make(OpClass.FALU, dst=FP_REG_BASE + 4)
        assert insn.dst >= FP_REG_BASE

    def test_positional_construction_matches_keywords(self):
        by_position = Instruction(7, 0x1010, OpClass.BRANCH, None, (3,),
                                  None, True, True, 0x1000)
        by_keyword = make(OpClass.BRANCH, seq=7, pc=0x1010, srcs=(3,),
                          is_branch=True, taken=True, target=0x1000)
        assert by_position == by_keyword
        assert by_position.base_latency == by_keyword.base_latency

    def test_replace_recomputes_derived_fields(self):
        insn = dataclasses.replace(make(OpClass.IALU, dst=4),
                                   opclass=OpClass.LOAD, mem_addr=0x2000)
        assert insn.is_load and insn.is_mem and not insn.is_store
        assert insn.base_latency == BASE_LATENCY[OpClass.LOAD]
        assert (insn.dst, insn.mem_addr) == (4, 0x2000)


