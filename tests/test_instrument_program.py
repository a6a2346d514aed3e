"""Tests for InstrumentedProgram construction and execution."""

from __future__ import annotations

import pytest

from repro.instrument.program import (
    InstrumentationError,
    _CODE_CACHE,
    clear_compiled_cache,
    compiled_cache_info,
    instrument,
)
from repro.instrument.runtime import BranchId, Runtime, branch_mask
from repro.instrument.signature import ProgramSignature
from tests import sample_programs as sp


class TestConstruction:
    def test_counts_conditionals_and_branches(self, paper_foo_program):
        assert paper_foo_program.n_conditionals == 2
        assert paper_foo_program.n_branches == 4
        assert paper_foo_program.all_branches == frozenset(
            {BranchId(0, True), BranchId(0, False), BranchId(1, True), BranchId(1, False)}
        )

    def test_signature_derived_from_parameters(self):
        program = instrument(sp.nested_branches)
        assert program.arity == 2
        assert program.signature.name == "nested_branches"

    def test_explicit_signature_is_used(self):
        signature = ProgramSignature(name="custom", arity=1, low=(-2.0,), high=(2.0,))
        program = instrument(sp.single_branch, signature=signature)
        assert program.signature.low == (-2.0,)

    def test_source_is_kept_for_inspection(self, paper_foo_program):
        assert "__coverme_rt__" in paper_foo_program.source

    def test_lambda_cannot_be_instrumented(self):
        with pytest.raises((InstrumentationError, ValueError)):
            instrument(lambda x: 1 if x > 0 else 0)

    def test_builtin_cannot_be_instrumented(self):
        with pytest.raises(InstrumentationError):
            instrument(abs)


class TestExecution:
    def test_run_returns_value_r_and_record(self, paper_foo_program):
        value, r, record = paper_foo_program.run((0.5,), runtime=Runtime())
        assert value == sp.paper_foo(0.5)
        assert r == 1.0
        assert record.covered == {BranchId(0, True), BranchId(1, False)}

    def test_run_uses_fresh_runtime_when_none_given(self, paper_foo_program):
        value, r, record = paper_foo_program.run((2.0,))
        assert value == sp.paper_foo(2.0)
        assert record.covered == {BranchId(0, False), BranchId(1, True)}

    def test_exceptions_in_program_are_swallowed(self):
        program = instrument(sp.raises_for_small)
        value, _, record = program.run((0.5,))  # 1.0 / 0 raises inside the program
        assert value is None
        assert BranchId(0, True) in record.covered  # branch before the fault recorded

    def test_helper_instrumentation_redirects_calls(self):
        program = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        _, _, record = program.run((0.1,), runtime=Runtime())
        assert BranchId(0, True) in record.covered
        _, _, record = program.run((10.0,), runtime=Runtime())
        assert BranchId(0, False) in record.covered

    def test_original_function_is_not_mutated(self, paper_foo_program):
        # The module-level function keeps working without any runtime installed.
        assert sp.paper_foo(0.7) == 0
        assert sp.paper_foo(1.0) == 1


class TestProfiledExecution:
    """The specialized tier against the recording reference."""

    def test_profiles_agree_on_coverage(self, paper_foo_program):
        for x in (0.5, 1.0, -3.0, 7.7):
            _, r_trace, record = paper_foo_program.run((x,))
            _, r_sp, covered = paper_foo_program.run_specialized((x,), 0)
            # With an empty saturation mask no probe is stripped, so the
            # specialized bitset is complete.
            assert covered == branch_mask(record.covered)
            # The specialized tier bakes in CoverMe's pen: every conditional
            # is case (a), so r is 0; the recording default (policy=None)
            # leaves r at 1.
            assert r_trace == 1.0
            assert r_sp == 0.0

    def test_exceptions_swallowed_in_fast_profile(self):
        program = instrument(sp.raises_for_small)
        value, _, covered = program.run_specialized((0.5,), 0)
        assert value is None
        assert covered & (1 << BranchId(0, True).bit)


class TestCompiledCodeCache:
    def test_reinstrumenting_same_source_hits_cache(self):
        clear_compiled_cache()
        first = instrument(sp.paper_foo)
        entries_after_first = compiled_cache_info()["entries"]
        second = instrument(sp.paper_foo)
        assert compiled_cache_info()["entries"] == entries_after_first
        # Cached artifacts are shared; namespaces and handles are not.
        assert first.entry is not second.entry
        assert first.handle is not second.handle
        assert first.conditionals == second.conditionals

    def test_clone_shares_compiled_code(self):
        clear_compiled_cache()
        program = instrument(sp.nested_branches)
        entries = compiled_cache_info()["entries"]
        clone = program.clone()
        assert compiled_cache_info()["entries"] == entries
        assert clone.entry.__code__ is not None
        # Clones execute independently (separate handles).
        _, _, record = clone.run((1.0, 1.0), runtime=Runtime())
        assert record.covered

    def test_cache_key_includes_start_label(self):
        """The same helper at a different label offset must compile separately."""
        clear_compiled_cache()
        # paper_foo has 2 conditionals, so helper_goo compiles at start label 2.
        offset = instrument(sp.paper_foo, extra_functions=[sp.helper_goo])
        assert offset.conditionals[-1].label == 2
        entries = compiled_cache_info()["entries"]
        # helper_goo alone starts at label 0: a distinct cache entry.
        program = instrument(sp.helper_goo)
        assert compiled_cache_info()["entries"] == entries + 1
        assert program.conditionals[0].label == 0

    def test_cached_programs_behave_identically(self):
        clear_compiled_cache()
        uncached = instrument(sp.loop_program)
        cached = instrument(sp.loop_program)
        for x in (0.5, 9.0, 1.0e6):
            assert cached.run((x,))[0] == uncached.run((x,))[0] == sp.loop_program(x)

    def test_clear_compiled_cache(self):
        instrument(sp.paper_foo)
        assert compiled_cache_info()["entries"] >= 1
        clear_compiled_cache()
        assert compiled_cache_info()["entries"] == 0
        assert _CODE_CACHE == {}


class TestSignature:
    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            ProgramSignature(name="bad", arity=0)

    def test_bounds_must_match_arity(self):
        with pytest.raises(ValueError):
            ProgramSignature(name="bad", arity=2, low=(0.0,), high=(1.0,))

    def test_from_callable_counts_positional_parameters(self):
        signature = ProgramSignature.from_callable(sp.three_dimensional)
        assert signature.arity == 3
        assert len(signature.low) == 3


class TestFallbackReport:
    """Distance-blind conditionals are observable via fallback_conditionals."""

    def test_complete_lowering_reports_no_fallbacks(self):
        for func in (sp.paper_foo, sp.nested_boolean, sp.demorgan, sp.ternary_test,
                     sp.chained_comparison, sp.mixed_leaves, sp.truthiness):
            program = instrument(func)
            assert program.fallback_conditionals == (), func.__name__

    def test_oversized_tree_is_reported(self):
        from repro.instrument.ast_pass import instrument_source

        clauses = " or ".join(f"x > {i}.0" for i in range(70))
        _, conds, _, _ = instrument_source(
            f"def f(x):\n    if {clauses}:\n        return 1\n    return 0\n"
        )
        assert [c.form for c in conds] == ["truth"]

    def test_conditional_forms_histogram(self):
        program = instrument(sp.ternary_test)
        assert program.conditional_forms() == {"ternary": 1}
        program = instrument(sp.truthiness)
        assert program.conditional_forms() == {"promoted": 1}
