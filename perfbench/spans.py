"""In-memory span tracing of superlat's layers, installed from outside.

Each traced callable is replaced, at the attribute where callers look it
up, by a wrapper that records a span (name, start, end, parent, problem)
and optional counters.  Spans stay in memory until the run ends; self
time is a span's duration minus the durations of its direct children.
The package itself is never edited; `Tracer.uninstall` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters of one run; `problem` tags the spans that follow."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One tuple per finished span: (name id, start, end, parent, problem);
        # parent is an index into `spans` or -1.
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.problem = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`; the span is closed even when
        fn raises (a deadline interrupt included)."""
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((nid, 0.0, 0.0, parent, self.problem))
        self._stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent, self.problem)

    def close_open(self) -> None:
        """End every span still open, as of now.  Used after an interrupt
        that may have landed inside a span's own bookkeeping."""
        end = self.clock()
        while self._stack:
            idx = self._stack.pop()
            nid, start, _, parent, problem = self.spans[idx]
            if start:
                self.spans[idx] = (nid, start, end, parent, problem)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a spanning wrapper.  `count(counts, result,
        args, kwargs)` runs after a successful call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self, members=None) -> dict[str, float]:
        """Total self time per span name over the spans indexed by
        `members` (default: all), which must include each member's children."""
        members = range(len(self.spans)) if members is None else members
        children = defaultdict(float)
        for idx in members:
            _, start, end, parent, _ = self.spans[idx]
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx in members:
            nid, start, end, _, _ = self.spans[idx]
            out[self.names[nid]] += end - start - children[idx]
        return dict(out)

    def inclusive_times(self, members=None) -> dict[str, float]:
        """Total span duration per name, children included."""
        members = range(len(self.spans)) if members is None else members
        out: dict[str, float] = defaultdict(float)
        for idx in members:
            nid, start, end, _, _ = self.spans[idx]
            out[self.names[nid]] += end - start
        return dict(out)

    def by_root(self) -> dict[str, list[int]]:
        """Span indices grouped by the name of the root span (the outermost
        call) each span ran under."""
        roots: list[int] = []
        groups: dict[str, list[int]] = defaultdict(list)
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            roots.append(idx if parent < 0 else roots[parent])
            groups[self.names[self.spans[roots[idx]][0]]].append(idx)
        return dict(groups)

    def dump(self, path, problems: list[str]) -> None:
        """Write every span as one JSON document."""
        doc = {
            "names": self.names,
            "problems": problems,
            "fields": ["name", "start", "end", "parent", "problem"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _add(key, measure):
    def count(counts, result, args, kwargs):
        counts[key] += measure(result, args, kwargs)
    return count


def _calls(key):
    return _add(key, lambda result, args, kwargs: 1)


def _chain(*counters):
    def count(counts, result, args, kwargs):
        for c in counters:
            c(counts, result, args, kwargs)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer where the package
    looks them up."""
    from superlat import cli, diophantine, isometry, linalg, problem_io

    t = tracer
    # problem_io: parsing, documents, verification.
    t.wrap(problem_io, "parse_problem", "problem_io.parse_problem")
    t.wrap(cli, "result_document", "problem_io.result_document")
    t.wrap(cli, "document_json", "problem_io.document_json",
           _add("problem_io.document_json.bytes", lambda r, a, k: len(r)))
    t.wrap(cli, "verify_document", "problem_io.verify_document")
    # isometry: the search pipeline and the oracle.
    t.wrap(isometry.IsometryProblem, "__init__", "isometry.IsometryProblem")
    t.wrap(cli, "find_isometries", "isometry.assemble",
           _add("isometry.assemble.tuples", lambda r, a, k: r.stats.joint_raw))
    t.wrap(isometry, "solve_eq1", "isometry.solve_eq1",
           _add("isometry.solve_eq1.solutions", lambda r, a, k: len(r)))
    t.wrap(isometry, "solve_eq3_per_z0", "isometry.solve_eq3_per_z0",
           _add("isometry.solve_eq3_per_z0.solutions", lambda r, a, k: len(r)))
    t.wrap(isometry, "filter_eq2", "isometry.filter_eq2", _chain(
        _add("isometry.filter_eq2.tested", lambda r, a, k: sum(len(c) for c in a[2])),
        _add("isometry.filter_eq2.kept", lambda r, a, k: sum(len(c) for c in r)),
    ))
    t.wrap(isometry, "reconstruct", "isometry.reconstruct", _chain(
        _calls("isometry.reconstruct.calls"),
        _add("isometry.reconstruct.accepted", lambda r, a, k: r is not None),
        _add("isometry.reconstruct.integral", lambda r, a, k: r is not None and r.integral),
    ))
    t.wrap(isometry, "verify_certificate", "isometry.verify_certificate")
    t.wrap(cli, "brute_force_isometries", "isometry.brute_force_isometries")
    # diophantine: norm enumeration and the LDL form.
    t.wrap(isometry, "vectors_of_norm", "diophantine.vectors_of_norm", _chain(
        _calls("diophantine.vectors_of_norm.calls"),
        _add("diophantine.vectors_of_norm.vectors", lambda r, a, k: len(r)),
    ))
    t.wrap(diophantine.PosDefForm, "__init__", "diophantine.PosDefForm")
    # forms: the dual-lattice test in reconstruct.
    t.wrap(isometry, "dual_membership", "forms.dual_membership", _chain(
        _calls("forms.dual_membership.calls"),
        _add("forms.dual_membership.passed", lambda r, a, k: bool(r)),
    ))
    # linalg: exact matrix arithmetic and the kernel lattice.
    t.wrap(linalg.Mat, "__matmul__", "linalg.Mat.matmul", _calls("linalg.Mat.matmul.calls"))
    t.wrap(linalg.Mat, "inverse", "linalg.Mat.inverse")
    t.wrap(isometry, "integer_kernel_basis", "linalg.integer_kernel_basis")
