"""Views over the event stream: the old ad-hoc recorders, rebuilt.

Before the tracing subsystem existed the reproduction had two
disconnected recorders — ``sim.metrics.MetricsRecorder`` (the
"independent pqos process" sampling every quantum) and
``ControllerDaemon.history`` (the daemon's own ``IterationLog``).  Both
are now *views* over the trace: every quantum the engine emits a
``metrics/quantum`` instant carrying the full record, and every daemon
iteration emits a ``daemon/iteration`` instant carrying the full log
entry, so either recorder can be reconstructed exactly from the event
stream alone.  ``examples/fig11_trace_timeline.py`` demonstrates the
round trip on the Fig. 11 scenario.

Imports of the recorder types happen inside the functions: the
instrumented subsystems import :mod:`repro.obs.tracer` at module load,
so a top-level import of ``repro.core`` here would be circular.
"""

from __future__ import annotations


class SampledStreamError(RuntimeError):
    """Raised when an exact-replay view is fed a sampled-mode stream.

    Sampled tracing (``Tracer(sample=N)``) records only 1-in-N quanta,
    so reconstructing ``MetricsRecorder`` or the daemon history from it
    would silently return a subset that *looks* complete.  The views
    refuse instead; re-run in full-fidelity mode for exact replay.
    """


def _events(source) -> list:
    """Accept a :class:`~repro.obs.tracer.Tracer` (its retained events)
    or a plain event list."""
    if hasattr(source, "events"):
        return source.events()
    return list(source)


def sampling_mode(source) -> "dict | None":
    """The stream's ``obs/mode`` marker args if it was recorded in
    sampled mode (survives JSONL round trips), else None."""
    for event in _events(source):
        if (event.category == "obs" and event.name == "mode"
                and event.args.get("sample")):
            return dict(event.args)
    return None


def _require_full_fidelity(source, what: str) -> None:
    mode = sampling_mode(source)
    if mode is not None:
        raise SampledStreamError(
            f"cannot reconstruct {what} from a sampled-mode stream "
            f"(1-in-{mode['sample']} quanta, seed {mode.get('seed')}): "
            f"exact metrics replay only holds at full fidelity — "
            f"re-record without sample=")


def select(source, category: str, name: "str | None" = None) -> list:
    """Events of one category (and optionally one name), in order."""
    return [e for e in _events(source)
            if e.category == category and (name is None or e.name == name)]


def metrics_from_events(source):
    """Rebuild a :class:`~repro.sim.metrics.MetricsRecorder` from the
    ``metrics/quantum`` events — identical to the engine's recorder."""
    from ..sim.metrics import MetricsRecorder, record_from_dict
    _require_full_fidelity(source, "MetricsRecorder")
    recorder = MetricsRecorder()
    for event in select(source, "metrics", "quantum"):
        recorder.append(record_from_dict(event.args))
    return recorder


def history_from_events(source) -> list:
    """Rebuild the daemon's ``IterationLog`` list from the
    ``daemon/iteration`` events — identical to
    ``ControllerDaemon.history`` under any registered policy (an FSM
    :class:`~repro.core.fsm.State` for IAT, a
    :class:`~repro.core.policies.PolicyState` otherwise)."""
    from ..core.daemon import IterationLog
    from ..core.fsm import State
    from ..core.monitor import ChangeKind
    from ..core.policies import PolicyState
    _require_full_fidelity(source, "ControllerDaemon.history")
    fsm_states = {state.value: state for state in State}
    history = []
    for event in select(source, "daemon", "iteration"):
        args = event.args
        state = args["state"]
        history.append(IterationLog(
            time=args["time"],
            state=fsm_states.get(state) or PolicyState(state),
            kind=ChangeKind(args["kind"]), ddio_ways=args["ddio_ways"],
            group_ways=dict(args["group_ways"]), action=args["action"]))
    return history


def fsm_timeline(source) -> "list[tuple[float, object]]":
    """(time, State) after every daemon iteration."""
    return [(entry.time, entry.state)
            for entry in history_from_events(source)]


def times(source) -> "list[float]":
    """Quantum timestamps of the recorded run."""
    return [e.args["time"] for e in select(source, "metrics", "quantum")]


def mask_timeline(source) -> "dict[str, list[int]]":
    """Per-tenant CAT mask series, one entry per quantum."""
    masks: "dict[str, list[int]]" = {}
    for event in select(source, "metrics", "quantum"):
        for name, snap in event.args["tenants"].items():
            masks.setdefault(name, []).append(snap["mask"])
    return masks


def ddio_mask_timeline(source) -> "list[int]":
    """DDIO way-mask series, one entry per quantum."""
    return [e.args["ddio_mask"] for e in select(source, "metrics", "quantum")]
