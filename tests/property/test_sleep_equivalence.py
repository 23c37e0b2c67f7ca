"""Differential property test: ``yield delay`` executes what ``yield
sim.timeout(delay)`` executes.

A sleeping process sits on the event heap itself and may be resumed in the
dispatch that woke it (``Process._wake``); the ``Timeout`` form goes through
``succeed`` and the immediate FIFO. The two must be indistinguishable from
inside the simulation: the same ``(time, process, step)`` log and the same
``events_executed``, on ties as well as off them.

Random programs are built to collide: delays come from a small set of
millisecond multiples (and halves, so sums meet), several processes share
them, and the plain waits are mixed with everything else a process can
yield — an already-triggered event, an ``any_of`` over real ``Timeout``
objects, a shared event another process fires, a join on a child process —
plus scheduled ``kill()`` calls that land on sleeping processes and a
``run(until=...)`` cut into chunks whose ends coincide with wake-ups.

The same programs pin the kernel's single path: untraced ``run()``, traced
``run()`` and a traced ``step()`` loop execute the same thing, and the two
traced drains leave the same records and counters.
"""

from __future__ import annotations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import ProcessKilled
from repro.sim.core import Simulator

#: Tie-heavy: 0, multiples of a millisecond (some twice as likely), and
#: halves whose sums meet them.
DELAYS = [0.0, 0.0005, 0.001, 0.001, 0.0015, 0.002, 0.002, 0.003, 0.004]
SHARED_EVENTS = 2

delays = st.sampled_from(DELAYS)

plain_steps = st.one_of(
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("sleep"), delays),  # twice: the form under test
    st.tuples(st.just("triggered"), st.none()),
    st.tuples(st.just("any_of"), st.tuples(delays, delays)),
    st.tuples(st.just("wait"), st.integers(0, SHARED_EVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, SHARED_EVENTS - 1)),
)
steps = st.one_of(
    plain_steps,
    st.tuples(st.just("join"), st.lists(plain_steps, max_size=3)),
)


@st.composite
def programs(draw):
    n_processes = draw(st.integers(1, 5))
    return {
        "processes": [
            (draw(st.lists(steps, max_size=6)), draw(st.booleans()))
            for _ in range(n_processes)
        ],
        # (time, target): kill() from a scheduled callback.
        "kills": draw(
            st.lists(
                st.tuples(delays.map(lambda d: d * 2), st.integers(0, n_processes - 1)),
                max_size=3,
            )
        ),
        # run(until=...) horizons, ascending; the queues are drained after.
        "chunks": sorted(draw(st.lists(delays.map(lambda d: d * 3), max_size=4))),
        "drain_by_step": draw(st.booleans()),
    }


class World:
    """One execution of a program in one wait form."""

    def __init__(self, program: dict, form: str) -> None:
        self.sim = Simulator()
        self.form = form
        self.log: list[tuple[float, str, object]] = []
        self.shared = [self.sim.event() for _ in range(SHARED_EVENTS)]
        self.processes = [
            self.sim.process(self.body(f"p{index}", step_list, survives))
            for index, (step_list, survives) in enumerate(program["processes"])
        ]
        for time, target in program["kills"]:
            self.sim.schedule(time, self.processes[target].kill)

    def wait(self, delay: float):
        return self.sim.timeout(delay) if self.form == "timeout" else delay

    def body(self, name: str, step_list: list, survives: bool):
        sim, log = self.sim, self.log
        for index, (kind, arg) in enumerate(step_list):
            log.append((sim.now, name, index))
            try:
                if kind == "sleep":
                    yield self.wait(arg)
                elif kind == "triggered":
                    yield sim.event().succeed()
                elif kind == "any_of":
                    yield sim.any_of([sim.timeout(arg[0]), sim.timeout(arg[1])])
                elif kind == "wait":
                    yield self.shared[arg]
                elif kind == "fire":
                    if not self.shared[arg].triggered:
                        self.shared[arg].succeed()
                else:
                    yield sim.process(self.body(f"{name}.child", arg, False))
            except ProcessKilled:
                # A survivor carries on with its next step while the wake-up
                # of the wait it was killed in is still queued.
                log.append((sim.now, name, "killed"))
                if not survives:
                    raise
        log.append((sim.now, name, "end"))


def execute(program: dict, form: str):
    world = World(program, form)
    sim = world.sim
    checkpoints = []
    for until in program["chunks"]:
        sim.run(until=until)
        checkpoints.append((sim.now, sim.events_executed, len(world.log)))
    if program["drain_by_step"]:
        while sim.step():
            pass
    else:
        sim.run()
    outcomes = [(p.triggered, p.alive, p.triggered and p.ok) for p in world.processes]
    return world.log, checkpoints, sim.events_executed, sim.now, outcomes


@settings(max_examples=300, deadline=None)
@given(programs())
def test_sleep_and_timeout_forms_execute_identically(program) -> None:
    assert execute(program, "sleep") == execute(program, "timeout")


@seed(19)
@settings(max_examples=100, deadline=None)
@given(programs())
def test_one_kernel_path_traced_or_not_run_or_step(program) -> None:
    """``run()`` untraced, ``run()`` traced and a traced ``step()`` loop are one
    dispatch path: the same execution, and the two traced drains leave the
    same records and the same counters."""

    def drained(by_step: bool):
        whole = {**program, "chunks": [], "drain_by_step": by_step}
        return execute(whole, "sleep")

    untraced = drained(by_step=False)
    with telemetry.capture("run") as run_tracer:
        by_run = drained(by_step=False)
    with telemetry.capture("step") as step_tracer:
        by_step = drained(by_step=True)
    assert by_run == untraced and by_step == untraced
    assert run_tracer.records == step_tracer.records
    counters = run_tracer.snapshot()["counters"]
    assert counters == step_tracer.snapshot()["counters"]
    names = [name for _, _, name, _ in run_tracer.records]
    assert names.count("dispatch") == counters["sim.events_dispatched"] > 0
    assert names.count("process_resume") == counters["sim.process_resumes"] > 0
