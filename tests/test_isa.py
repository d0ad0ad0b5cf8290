"""Unit tests for the instruction model and program shapes."""

import dataclasses

import pytest

from repro.isa import (
    BasicBlock,
    FP_REG_BASE,
    Instruction,
    InstructionStream,
    OpClass,
    is_fp_class,
    is_mem_class,
    iter_block,
)
from repro.isa.instructions import BASE_LATENCY
from repro.isa.program import BlockInstr


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


class TestIterBlock:
    def test_straightline_block(self):
        block = BasicBlock(start_pc=0x4000, instrs=[
            BlockInstr(OpClass.IALU, dst=4, srcs=(1,)),
            BlockInstr(OpClass.IALU, dst=5, srcs=(4,)),
        ])
        insns = list(iter_block(block, seq_start=10))
        assert [i.seq for i in insns] == [10, 11]
        assert [i.pc for i in insns] == [0x4000, 0x4004]

    def test_loop_back_emits_backward_branch(self):
        block = BasicBlock(start_pc=0x4000, instrs=[
            BlockInstr(OpClass.IALU, dst=4, srcs=(1,)),
        ], loop_back=True)
        insns = list(iter_block(block, seq_start=0))
        assert insns[-1].is_backward_branch
        assert insns[-1].target == 0x4000

    def test_loop_exit_branch_not_taken(self):
        block = BasicBlock(start_pc=0x4000, instrs=[
            BlockInstr(OpClass.IALU, dst=4, srcs=(1,)),
        ], loop_back=True)
        insns = list(iter_block(block, seq_start=0, taken=False))
        assert not insns[-1].taken

    def test_memory_op_requires_addr_callback(self):
        block = BasicBlock(start_pc=0x4000, instrs=[
            BlockInstr(OpClass.LOAD, dst=4, srcs=(1,), mem_stream=0),
        ])
        with pytest.raises(ValueError):
            list(iter_block(block, seq_start=0))

    def test_memory_op_resolves_address(self):
        block = BasicBlock(start_pc=0x4000, instrs=[
            BlockInstr(OpClass.LOAD, dst=4, srcs=(1,), mem_stream=7),
        ])
        insns = list(iter_block(block, seq_start=0,
                                addr_of=lambda sid: 0x8000 + sid))
        assert insns[0].mem_addr == 0x8007

    def test_block_size_includes_terminator(self):
        block = BasicBlock(start_pc=0, instrs=[
            BlockInstr(OpClass.IALU, dst=4, srcs=())], loop_back=True)
        assert block.size == 2
        assert block.end_pc == 8


class TestInstructionStream:
    def test_counts_emitted(self):
        stream = InstructionStream(make(seq=i) for i in range(5))
        consumed = list(stream)
        assert len(consumed) == 5
        assert stream.emitted == 5
