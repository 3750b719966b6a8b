"""Spans and counters for the traced run.

The recorder wraps qselci's public functions at every module attribute
through which a caller looks them up, so nothing in the library changes.
Each wrapped call leaves one span (name, start, end, parent span, op id) in
memory; counters are read from return values.  ``self_times`` turns spans
into per-span self time: duration minus the durations of its children.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace

SETUP = None  # op id of spans and counters recorded outside any op


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, or None
    op: int


class Recorder:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)  # (op, name) -> total
        self.op = SETUP
        self._stack = []

    def count(self, name, amount=1):
        self.counters[self.op, name] += amount

    def wrap(self, name, fn, on_return=None):
        """``fn`` recording a span per call; ``on_return(recorder, args,
        result)`` may add counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), None, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    def to_json_dict(self):
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op}
                for s in self.spans
            ],
            "counters": [
                {"op": op, "name": name, "value": value}
                for (op, name), value in sorted(
                    self.counters.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
        }


def self_times(spans):
    """Self time of each span, in list order: its duration minus the
    durations of its direct children.  Spans come from one call-nested
    thread, so the children of a span never overlap."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return [(s.end - s.start) - child_time[i] for i, s in enumerate(spans)]


def per_op_totals(spans, inclusive=False):
    """{op: {span name: summed self (or inclusive) time}}."""
    times = (
        [s.end - s.start for s in spans] if inclusive else self_times(spans)
    )
    out = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, times):
        out[s.op][s.name] += t
    return out


@functools.cache
def _counting_matrix_class():
    """The subspace matrix type handed to the eigensolver, counting
    mat-vecs (scipy is imported on first use, not with this module)."""
    import scipy.sparse

    class CountingMatrix(scipy.sparse.csr_matrix):
        recorder = None

        def __matmul__(self, other):
            self.recorder.count("hamiltonian.davidson_matvecs")
            return super().__matmul__(other)

    return CountingMatrix


def _counting_davidson(recorder, davidson):
    @functools.wraps(davidson)
    def wrapper(subspace, *args, **kwargs):
        matrix = _counting_matrix_class()(subspace.matrix)
        matrix.recorder = recorder
        return davidson(replace(subspace, matrix=matrix), *args, **kwargs)

    return wrapper


def _counting_slater_condon(recorder, slater_condon):
    counters = recorder.counters

    @functools.wraps(slater_condon)
    def wrapper(d1, d2, table):
        value = slater_condon(d1, d2, table)
        counters[recorder.op, "hamiltonian.slater_condon_calls"] += 1
        if value != 0.0:
            counters[recorder.op, "hamiltonian.slater_condon_nonzero"] += 1
        return value

    return wrapper


def _subspace_counts(rec, _args, sub):
    rec.count("hamiltonian.build_subspace.dim", sub.dim)
    rec.count("hamiltonian.build_subspace.nnz", sub.matrix.nnz)


def _circuit_counts(rec, args, state):
    rec.count("simulator.amps_touched.computed", len(args[0].gates) * state.amps.size)


def _listed_counts(rec, _args, dist):
    rec.count("sampling.distribution.listed", len(dist.probs))


def _shot_counts(rec, _args, counts):
    rec.count("sampling.shots", counts.total_shots)


def _filter_counts(rec, _args, result):
    kept, _rejected = result
    rec.count("sampling.kept", kept.total_shots)


def _unique_counts(rec, _args, dets):
    rec.count("sampling.unique", len(dets))


# (defining module, function, span name, counter hook); one row per
# function.  ``install`` wraps it under every name a loaded qselci module
# binds it to, so ``from .hamiltonian import build_subspace`` sites are
# covered without being listed.
WRAPPED = [
    ("hamiltonian", "build_subspace", "hamiltonian.build_subspace", _subspace_counts),
    ("hamiltonian", "davidson_lowest", "hamiltonian.davidson", None),
    ("hamiltonian", "fci_oracle", "hamiltonian.fci_oracle", None),
    ("simulator", "apply_circuit", "simulator.apply_circuit", _circuit_counts),
    ("sampling", "ideal_distribution", "sampling.distribution", _listed_counts),
    ("sampling", "depolarize_distribution", "sampling.distribution", None),
    ("sampling", "sample", "sampling.sample", _shot_counts),
    ("sampling", "apply_readout", "sampling.readout", None),
    ("sampling", "symmetry_filter", "sampling.filter", _filter_counts),
    ("sampling", "counts_to_determinants", "sampling.filter", _unique_counts),
    ("circuits", "build_usci", "circuits.build_usci",
     lambda rec, _a, c: rec.count("circuits.gates", len(c.gates))),
    ("pipeline", "run_qsci_once", "pipeline.run_qsci_once", None),
    ("expansion", "connected_set", "expansion.connected_set",
     lambda rec, _a, c: rec.count("expansion.connected_set.candidates", len(c))),
    ("expansion", "score_candidates", "expansion.score", None),
    ("expansion", "expand_and_rediagonalize", "expansion.expand",
     lambda rec, _a, r: rec.count("expansion.expand.added", r.n_added)),
    ("expansion", "en_pt2", "expansion.pt2",
     lambda rec, _a, r: rec.count("expansion.pt2.skipped", r.n_skipped)),
    ("fcidump", "parse_fcidump", "fcidump.parse", None),
]

COUNTED_ONLY = [("hamiltonian", "slater_condon", _counting_slater_condon)]


def _bindings(original):
    """(module, attribute) of every loaded qselci module that binds
    ``original``."""
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qselci" or name.startswith("qselci."))
        for attr, value in list(vars(module).items())
        if value is original
    ]


def install(recorder):
    """Wrap every function of WRAPPED and COUNTED_ONLY wherever it is bound;
    returns a function that puts the original attributes back."""
    replacements = []
    for module_name, attr, span_name, hook in WRAPPED:
        original = getattr(importlib.import_module(f"qselci.{module_name}"), attr)
        fn = original
        if attr == "davidson_lowest":
            fn = _counting_davidson(recorder, original)
        replacements.append((original, recorder.wrap(span_name, fn, hook)))
    for module_name, attr, counting in COUNTED_ONLY:
        original = getattr(importlib.import_module(f"qselci.{module_name}"), attr)
        replacements.append((original, counting(recorder, original)))
    saved = []
    for original, wrapper in replacements:
        for module, attr in _bindings(original):
            saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall
