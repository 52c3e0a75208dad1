"""Which event-search route answers, counted by ``PlanStats``.

The compiled runtime has three routes for an event search: the fused bit
closures on a growing prefix, an ``EventIndex`` (kernel-built on a static
trace, per-state otherwise) and the scan.  Every search is counted under
the route that answered, so the four route counters sum to
``event_searches``.  The census pinned here is what the serve and batch
workloads rely on: a static batch trace reaches only the kernel-built
index, a monitored stream only the fused search.
"""

import pytest

from repro.checking.monitor import Monitor
from repro.compile import compile_specification
from repro.gen.cases import SYSTEM_FACTORIES
from repro.gen.loadgen import LOAD_FAMILIES
from repro.semantics.trace import Trace
from repro.serve.protocol import rows_to_states, trace_to_rows
from repro.serve.streams import SPEC_FACTORIES

ROUTES = ("fused_searches", "kernel_index_searches", "state_index_searches", "scan_searches")


def family_case(family, system, options, seed=3):
    spec = SPEC_FACTORIES()[family]()
    rows = trace_to_rows(SYSTEM_FACTORIES()[system](seed=seed, **options))
    return spec, compile_specification(spec), rows


def routes(stats):
    counts = stats.as_dict()
    assert sum(counts[name] for name in ROUTES) == counts["event_searches"]
    return {name: counts[name] for name in ROUTES if counts[name]}


@pytest.mark.parametrize("family,system,faulty,options", LOAD_FAMILIES)
def test_static_batch_traces_reach_only_the_kernel_index(family, system, faulty, options):
    spec, plan, rows = family_case(family, system, options)
    state = plan.evaluator(Trace(rows_to_states(rows)))
    state.check_all()
    assert set(routes(state.stats)) == {"kernel_index_searches"}


@pytest.mark.parametrize("family,system,faulty,options", LOAD_FAMILIES)
def test_monitored_streams_reach_only_the_fused_search(family, system, faulty, options):
    spec, plan, rows = family_case(family, system, options)
    monitor = Monitor(
        {clause.name: clause.interpreted_formula() for clause in spec.clauses}, plan=plan
    )
    for start in range(0, len(rows), 4):
        monitor.observe_batch(rows_to_states(rows[start:start + 4]))
    assert set(routes(monitor.plan_state.stats)) == {"fused_searches"}


def test_the_per_position_binding_counts_its_own_routes():
    spec, plan, rows = family_case("mutex", "mutex", {"processes": 2})
    state = plan.evaluator(Trace(rows_to_states(rows)), vectorize=False)
    state.check_all()
    counted = routes(state.stats)
    assert counted and set(counted) <= {"state_index_searches", "scan_searches"}
