"""Tests for the resource model and the paper's constraint notation."""

import pytest

from repro.errors import ResourceError
from repro.graphs import hal
from repro.graphs.scenario import mem_traffic
from repro.ir.ops import OpKind
from repro.scheduling.resources import (
    ALU,
    MEM,
    MUL,
    FU_TYPES,
    MAX_UNITS,
    ResourceSet,
    bank_assignment,
    banked_mem,
)


class TestNotationParsing:
    def test_paper_columns(self):
        rs = ResourceSet.parse("2+/-,2*")
        assert rs.count(ALU) == 2 and rs.count(MUL) == 2

    def test_abbreviated_alu(self):
        rs = ResourceSet.parse("2+/,1*")
        assert rs.count(ALU) == 2 and rs.count(MUL) == 1

    def test_named_types(self):
        rs = ResourceSet.parse("1alu,2mul,1mem")
        assert rs.count(ALU) == 1
        assert rs.count(MUL) == 2
        assert rs.count(MEM) == 1

    def test_whitespace_tolerated(self):
        rs = ResourceSet.parse(" 2 +/- , 1 * ")
        assert rs.count(ALU) == 2 and rs.count(MUL) == 1

    def test_repeated_tokens_accumulate(self):
        rs = ResourceSet.parse("1*,1*")
        assert rs.count(MUL) == 2

    def test_missing_count_rejected(self):
        with pytest.raises(ResourceError):
            ResourceSet.parse("+/-")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ResourceError):
            ResourceSet.parse("2fpu")

    def test_empty_rejected(self):
        with pytest.raises(ResourceError):
            ResourceSet.parse("")

    @pytest.mark.parametrize(
        "text", ["2+/-,,1*", ",2*", "1*,", "2+/-, ,1*"], ids=repr
    )
    def test_empty_token_rejected_with_clear_message(self, text):
        with pytest.raises(ResourceError) as excinfo:
            ResourceSet.parse(text)
        message = str(excinfo.value)
        assert "empty resource token" in message
        assert "comma" in message

    def test_duplicate_tokens_sum_across_spellings(self):
        # Accumulation is deliberate (documented on parse): repeating
        # a type — even under different spellings of the same type —
        # sums the counts instead of last-wins or erroring.
        rs = ResourceSet.parse("1+/-,2*,1alu,1*")
        assert rs.count(ALU) == 2
        assert rs.count(MUL) == 3

    def test_notation_roundtrip(self):
        rs = ResourceSet.parse("2+/-,1*")
        assert ResourceSet.parse(rs.notation()) == rs


class TestSemantics:
    def test_fu_for_op(self):
        rs = ResourceSet.of(alu=1, mul=1, mem=1)
        assert rs.fu_for_op(OpKind.ADD) is ALU
        assert rs.fu_for_op(OpKind.LT) is ALU
        assert rs.fu_for_op(OpKind.MUL) is MUL
        assert rs.fu_for_op(OpKind.LOAD) is MEM

    def test_structural_ops_need_no_unit(self):
        rs = ResourceSet.of(alu=1)
        assert rs.fu_for_op(OpKind.WIRE) is None
        assert rs.fu_for_op(OpKind.CONST) is None

    def test_missing_unit_type_detected(self):
        rs = ResourceSet.of(alu=2)  # no multiplier
        missing = rs.check_schedulable(hal())
        assert "m1" in missing

    def test_full_set_schedulable(self):
        rs = ResourceSet.parse("1+/-,1*")
        assert rs.check_schedulable(hal()) == []

    def test_instances_deterministic(self):
        rs = ResourceSet.of(alu=2, mul=1)
        labels = [(t.name, i) for t, i in rs.instances()]
        assert labels == [("alu", 0), ("alu", 1), ("mul", 0)]

    def test_with_added(self):
        rs = ResourceSet.of(alu=1)
        bigger = rs.with_added(MEM)
        assert bigger.count(MEM) == 1
        assert rs.count(MEM) == 0  # original untouched

    def test_total_units(self):
        assert ResourceSet.parse("2+/-,2*").total_units == 4

    def test_negative_count_rejected(self):
        with pytest.raises(ResourceError):
            ResourceSet({ALU: -1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: ResourceSet.parse(f"{n}+/-,2*"),
            lambda n: ResourceSet.parse(f"{n - 1}*,1*"),
            lambda n: ResourceSet.of(mul=n),
            lambda n: ResourceSet.of(alu=1).with_added(MUL, n),
            lambda n: ResourceSet.of(alu=1).with_banked_mem(n, 1),
        ],
        ids=["parse", "parse-accumulated", "of", "with_added", "banked"],
    )
    def test_unit_counts_are_bounded(self, build):
        assert build(MAX_UNITS).total_units >= MAX_UNITS
        with pytest.raises(ResourceError, match=f"\\[0, {MAX_UNITS}\\]"):
            build(MAX_UNITS + 1)

    def test_equality_and_hash(self):
        assert ResourceSet.parse("2+/-") == ResourceSet.of(alu=2)
        assert hash(ResourceSet.parse("1*")) == hash(ResourceSet.of(mul=1))

    def test_standard_types_registry(self):
        assert set(FU_TYPES) == {"alu", "mul", "mem"}

    def test_empty_set_construction_rejected(self):
        with pytest.raises(ResourceError):
            ResourceSet({})
        with pytest.raises(ResourceError):
            ResourceSet.of()


class TestBankedMemory:
    def test_banked_notation_parses(self):
        rs = ResourceSet.parse("4mem[2x2]")
        fu = rs.banked_fu()
        assert fu is not None
        assert fu.banking == (2, 2)
        assert rs.count(fu) == 4

    def test_banked_notation_roundtrip(self):
        rs = ResourceSet.parse("2+/-,1*,4mem[2x2]")
        assert "4mem[2x2]" in rs.notation()
        assert ResourceSet.parse(rs.notation()) == rs

    def test_count_must_equal_banks_times_ports(self):
        with pytest.raises(ResourceError):
            ResourceSet.parse("3mem[2x2]")

    def test_conflicting_mem_types_rejected(self):
        with pytest.raises(ResourceError):
            ResourceSet.parse("1mem,2mem[2x1]")

    def test_with_banked_mem_replaces_flat_mem(self):
        rs = ResourceSet.parse("2+/-,1*,2mem").with_banked_mem(2, 2)
        assert rs.count(MEM) == 0
        assert rs.banked_fu() == banked_mem(2, 2)
        assert rs.count(banked_mem(2, 2)) == 4

    def test_bank_of_unit_is_bank_major(self):
        rs = ResourceSet.parse("4mem[2x2]")
        fu = rs.banked_fu()
        assert [rs.bank_of_unit(fu, i) for i in range(4)] == [0, 0, 1, 1]
        assert rs.bank_of_unit(ALU, 0) is None

    def test_bank_assignment_tags_win_untagged_round_robin(self):
        # mem_traffic tags lanes 0..pairs//2-1 with @bank<lane mod 2>;
        # the rest round-robin over sorted untagged ids.
        dfg = mem_traffic(4)
        banks = bank_assignment(dfg, 2)
        assert banks["s0"] == banks["l0"] == 0
        assert banks["s1"] == banks["l1"] == 1
        untagged = sorted(
            op for op in ("l2", "l3", "s2", "s3")
        )
        assert [banks[op] for op in untagged] == [0, 1, 0, 1]

    def test_flat_sets_have_no_banked_fu(self):
        assert ResourceSet.parse("2+/-,2*,1mem").banked_fu() is None
