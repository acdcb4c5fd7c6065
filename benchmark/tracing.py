"""Per-layer tracing by wrapping the program's functions from outside.

:class:`Tracer` replaces each wrapped function at every binding it has in the
loaded ``rainbowcw`` modules: the defining module, every module that imported
it by name, the package namespace, and the class for methods.  Functions in
``monomials`` and ``termorders`` run millions of times per case, so they get
counters only; every other wrapped function records a span (name, start,
end, parent span, case id).  Spans stay in memory and are written once, at
the end of the run.  A span's self time is its duration minus the time its
child spans cover.

``uninstall`` restores every binding, so a traced and an untraced run can
share one process.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb

# (module, qualified name, span name or None for a counter only).  Names are
# the functions as the program defines them; a wrapped function that moves
# or is renamed makes ``install`` fail instead of reading as zero.
WRAPPED = [
    ("monomials", "Monomial.__init__", None),
    ("monomials", "Monomial.divides", None),
    ("monomials", "Monomial.lcm", None),
    ("termorders", "TermOrder.compare", None),
    ("termorders", "TermOrder.sort_key", None),
    ("ideals", "colon", None),
    ("ideals", "complementary_ideal", None),
    ("ideals", "codimension", "ideals.codimension"),
    ("ideals", "alexander_dual", "ideals.alexander_dual"),
    ("gfp", "matrix_rank", "gfp.matrix_rank"),
    ("gfp", "sparse_rank_mod_p", None),
    ("gfp", "VectorComplex.homology_ranks", None),
    ("complexes", "koszul_betti", "complexes.koszul_betti"),
    ("complexes", "koszul_strand_homology", "complexes.koszul_strand_homology"),
    ("complexes", "lcm_closure", "complexes.lcm_closure"),
    ("complexes", "BasedComplex.strand_at", "complexes.strand_at"),
    ("complexes", "BasedComplex.relevant_multidegrees", "complexes.relevant_multidegrees"),
    ("complexes", "BasedComplex.is_resolution", "complexes.is_resolution"),
    ("complexes", "BasedComplex.restrict", None),
    ("complexes", "BasedComplex.to_json", "complexes.to_json"),
    ("determinantal", "initial_term", "determinantal.initial_term"),
    ("determinantal", "initial_minor", "determinantal.initial_minor"),
    ("determinantal", "initial_ideal_maximal_minors", "determinantal.initial_ideal_maximal_minors"),
    ("determinantal", "rainbow_dfi", "determinantal.rainbow_dfi"),
    ("determinantal", "alexander_dual_complex", "determinantal.alexander_dual_complex"),
    ("determinantal", "overlap_condition", "determinantal.overlap_condition"),
    ("eagon_northcott", "sparse_eagon_northcott", "eagon_northcott.sparse_eagon_northcott"),
    ("cwposet", "face_poset", "cwposet.face_poset"),
    ("cwposet", "is_thin", "cwposet.is_thin"),
    ("cwposet", "open_interval_homology", "cwposet.open_interval_homology"),
    ("cwposet", "order_complex_reduced_homology", "cwposet.order_complex_reduced_homology"),
    ("cwposet", "recursive_atom_ordering_check", "cwposet.recursive_atom_ordering_check"),
    ("cwposet", "is_cw_poset", "cwposet.is_cw_poset"),
    ("strands", "strand_via_kernel", "strands.strand_via_kernel"),
    ("strands", "q_morphism", "strands.q_morphism"),
    ("strands", "support_chain", None),
    ("strands", "induced_subcomplex", "strands.induced_subcomplex"),
    ("strands", "rainbow_linear_strand", "strands.rainbow_linear_strand"),
    ("polarization", "find_free_sequence", "polarization.find_free_sequence"),
    ("polarization", "linearity_criterion", "polarization.linearity_criterion"),
    ("polarization", "hilbert_profile", "polarization.hilbert_profile"),
    ("polarization", "certify_polarization", "polarization.certify_polarization"),
    ("cli", "main", "cli.main"),
    # The one private function wrapped: the JSON dump and atomic write of
    # every CLI output, which no public function isolates.
    ("cli", "_emit_json", "cli.emit_json"),
]

DETERMINANTAL_SPANS = [name for _, _, name in WRAPPED if name and name.startswith("determinantal.")]

# Per-layer metrics: (name, unit, better).  Each value is a mean per case.
LAYER_METRICS = [
    ("gfp.rank_calls", "count", "lower"),
    ("gfp.rank_s", "s", "lower"),
    ("gfp.rank_entries", "count", "lower"),
    ("gfp.sparse_calls", "count", "lower"),
    ("gfp.homology_cells", "count", "lower"),
    ("complexes.koszul_multidegrees", "count", "lower"),
    ("complexes.koszul_useful_ratio", "ratio", "higher"),
    ("complexes.koszul_strand_s", "s", "lower"),
    ("complexes.lcm_closure_s", "s", "lower"),
    ("complexes.lcm_closure_size", "count", "lower"),
    ("complexes.strand_at_calls", "count", "lower"),
    ("complexes.strand_at_s", "s", "lower"),
    ("complexes.restrict_calls", "count", "lower"),
    ("monomials.divides_calls", "count", "lower"),
    ("monomials.lcm_calls", "count", "lower"),
    ("monomials.constructed", "count", "lower"),
    ("termorders.compare_calls", "count", "lower"),
    ("termorders.sort_key_calls", "count", "lower"),
    ("ideals.codimension_s", "s", "lower"),
    ("ideals.alexander_dual_s", "s", "lower"),
    ("ideals.calls", "count", "lower"),
    ("determinantal.initial_minor_calls", "count", "lower"),
    ("determinantal.self_s", "s", "lower"),
    ("eagon_northcott.builds", "count", "lower"),
    ("eagon_northcott.build_s", "s", "lower"),
    ("cwposet.face_posets", "count", "lower"),
    ("cwposet.face_poset_s", "s", "lower"),
    ("cwposet.intervals", "count", "lower"),
    ("cwposet.interval_homology_s", "s", "lower"),
    ("cwposet.atom_ordering_s", "s", "lower"),
    ("cwposet.thin_s", "s", "lower"),
    ("strands.kernel_calls", "count", "lower"),
    ("strands.kernel_s", "s", "lower"),
    ("strands.q_morphism_s", "s", "lower"),
    ("strands.support_chains", "count", "lower"),
    ("strands.induced_calls", "count", "lower"),
    ("strands.induced_s", "s", "lower"),
    ("polarization.free_seq_s", "s", "lower"),
    ("polarization.free_seq_face_posets", "count", "lower"),
    ("polarization.linearity_s", "s", "lower"),
    ("polarization.hilbert_s", "s", "lower"),
    ("polarization.hilbert_basis", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
]

# The workloads on which each per-layer metric must record work: the
# "should move" column of the README.  The coverage test holds the traced
# run to it.
LS, CW, SP = "linearity-sweep", "cw-certify", "strand-polarize"
EXPECTED = {
    "gfp.rank_calls": {LS, CW},
    "gfp.rank_s": {LS, CW},
    "gfp.rank_entries": {LS, CW},
    "gfp.sparse_calls": {CW},
    "gfp.homology_cells": {LS},
    "complexes.koszul_multidegrees": {LS},
    "complexes.koszul_useful_ratio": {LS},
    "complexes.koszul_strand_s": {LS},
    "complexes.lcm_closure_s": {LS, CW},
    "complexes.lcm_closure_size": {LS, CW},
    "complexes.strand_at_calls": {CW},
    "complexes.strand_at_s": {CW},
    "complexes.restrict_calls": {LS, SP},
    "monomials.divides_calls": {CW},
    "monomials.lcm_calls": {LS, CW},
    "monomials.constructed": {LS, CW, SP},
    "termorders.compare_calls": {CW},
    "termorders.sort_key_calls": {CW},
    "ideals.codimension_s": {LS, SP},
    "ideals.alexander_dual_s": {SP},
    "ideals.calls": {LS, SP},
    "determinantal.initial_minor_calls": {LS, CW, SP},
    "determinantal.self_s": {LS, CW, SP},
    "eagon_northcott.builds": {LS, CW, SP},
    "eagon_northcott.build_s": {LS, CW, SP},
    "cwposet.face_posets": {LS},
    "cwposet.face_poset_s": {LS, CW},
    "cwposet.intervals": {CW},
    "cwposet.interval_homology_s": {CW},
    "cwposet.atom_ordering_s": {CW},
    "cwposet.thin_s": {CW},
    "strands.kernel_calls": {SP},
    "strands.kernel_s": {SP},
    "strands.q_morphism_s": {SP},
    "strands.support_chains": {SP},
    "strands.induced_calls": {LS, SP},
    "strands.induced_s": {LS, SP},
    "polarization.free_seq_s": {LS},
    "polarization.free_seq_face_posets": {LS},
    "polarization.linearity_s": {LS, SP},
    "polarization.hilbert_s": {SP},
    "polarization.hilbert_basis": {SP},
    "cli.main_s": {CW},
    "cli.emit_s": {CW},
}


class Tracer:
    """Counters and spans for one run."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self._next_span = 0
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._stack: list[list] = []  # [name id, start, child time, span id]
        self._in_free_seq = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self.case = -1

    # -- recording ---------------------------------------------------------------

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enter(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        self._stack.append([nid, time.perf_counter(), 0.0, self._next_span])
        self._next_span += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        nid, start, child, sid = self._stack.pop()
        duration = end - start
        name = self.names[nid]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.counts[name] = self.counts.get(name, 0) + 1
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        self.spans.append((sid, nid, start, end, parent, self.case))

    # -- wrappers --------------------------------------------------------------------

    def _counter(self, fn, key: str, before=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            if before is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str, before=None, after=None):
        enter, exit_ = self._enter, self._exit

        def spanned(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, kwargs, result)
            return result

        return spanned

    def _hooks(self, qualname: str):
        """Extra counts taken from arguments and results at a boundary."""
        if qualname == "matrix_rank":
            return (lambda a, k: self.add("gfp.rank_entries", a[1] * a[2])), None
        if qualname == "VectorComplex.homology_ranks":
            return (lambda a, k: self.add("gfp.homology_cells", sum(a[0].dims))), None
        if qualname == "koszul_strand_homology":
            return None, (lambda a, k, r: self.add("koszul.useful", int(any(r[1:]))))
        if qualname == "lcm_closure":
            return None, (lambda a, k, r: self.add("lcm_closure.size", len(r)))
        if qualname == "face_poset":
            return (lambda a, k: self.add("free_seq.face_posets", int(self._in_free_seq > 0))), None
        if qualname == "hilbert_profile":
            def basis(a, k):
                nv, top = len(a[3]), a[2]
                self.add("hilbert.basis", sum(comb(nv + d - 1, d) if nv else int(d == 0)
                                              for d in range(top + 1)))
            return basis, None
        return None, None

    def _wrap(self, qualname: str, span: str | None, fn):
        before, after = self._hooks(qualname)
        if span is None:
            return self._counter(fn, qualname, before)
        if qualname == "find_free_sequence":
            inner = self._span(fn, span)

            def free_seq(*args, **kwargs):
                self._in_free_seq += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._in_free_seq -= 1

            return free_seq
        return self._span(fn, span, before, after)

    # -- installing ---------------------------------------------------------------------

    def install(self) -> None:
        """Patch every binding; the wrappers are built on the first call and
        reused, so a run can install and uninstall around each case."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "rainbowcw" or name.startswith("rainbowcw.")
        }
        patches = []
        for modname, qualname, span in WRAPPED:
            owner = modules[f"rainbowcw.{modname}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]  # KeyError: the function moved
            wrapper = self._wrap(qualname, span, original)
            if path:
                patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules.values():
                if mod.__dict__.get(attr) is original:
                    patches.append((mod, attr, original, wrapper))
        return patches

    # -- results ------------------------------------------------------------------------------

    def layer_metrics(self, cases: int) -> dict[str, float]:
        """Every per-layer metric as a mean per case."""
        c, s = self.counts.get, self.self_s.get
        kdeg = c("complexes.koszul_strand_homology", 0)
        totals = {
            "gfp.rank_calls": c("gfp.matrix_rank", 0),
            "gfp.rank_s": s("gfp.matrix_rank", 0.0),
            "gfp.rank_entries": c("gfp.rank_entries", 0),
            "gfp.sparse_calls": c("sparse_rank_mod_p", 0),
            "gfp.homology_cells": c("gfp.homology_cells", 0),
            "complexes.koszul_multidegrees": kdeg,
            "complexes.koszul_strand_s": s("complexes.koszul_strand_homology", 0.0),
            "complexes.lcm_closure_s": s("complexes.lcm_closure", 0.0),
            "complexes.lcm_closure_size": c("lcm_closure.size", 0),
            "complexes.strand_at_calls": c("complexes.strand_at", 0),
            "complexes.strand_at_s": s("complexes.strand_at", 0.0),
            "complexes.restrict_calls": c("BasedComplex.restrict", 0),
            "monomials.divides_calls": c("Monomial.divides", 0),
            "monomials.lcm_calls": c("Monomial.lcm", 0),
            "monomials.constructed": c("Monomial.__init__", 0),
            "termorders.compare_calls": c("TermOrder.compare", 0),
            "termorders.sort_key_calls": c("TermOrder.sort_key", 0),
            "ideals.codimension_s": s("ideals.codimension", 0.0),
            "ideals.alexander_dual_s": s("ideals.alexander_dual", 0.0),
            "ideals.calls": sum(c(k, 0) for k in (
                "colon", "complementary_ideal", "ideals.codimension", "ideals.alexander_dual")),
            "determinantal.initial_minor_calls": c("determinantal.initial_term", 0),
            "determinantal.self_s": sum(s(k, 0.0) for k in DETERMINANTAL_SPANS),
            "eagon_northcott.builds": c("eagon_northcott.sparse_eagon_northcott", 0),
            "eagon_northcott.build_s": s("eagon_northcott.sparse_eagon_northcott", 0.0),
            "cwposet.face_posets": c("cwposet.face_poset", 0),
            "cwposet.face_poset_s": s("cwposet.face_poset", 0.0),
            "cwposet.intervals": c("cwposet.open_interval_homology", 0),
            "cwposet.interval_homology_s": s("cwposet.open_interval_homology", 0.0)
            + s("cwposet.order_complex_reduced_homology", 0.0),
            "cwposet.atom_ordering_s": s("cwposet.recursive_atom_ordering_check", 0.0),
            "cwposet.thin_s": s("cwposet.is_thin", 0.0),
            "strands.kernel_calls": c("strands.strand_via_kernel", 0),
            "strands.kernel_s": s("strands.strand_via_kernel", 0.0),
            "strands.q_morphism_s": s("strands.q_morphism", 0.0),
            "strands.support_chains": c("support_chain", 0),
            "strands.induced_calls": c("strands.induced_subcomplex", 0),
            "strands.induced_s": s("strands.induced_subcomplex", 0.0),
            "polarization.free_seq_s": s("polarization.find_free_sequence", 0.0),
            "polarization.free_seq_face_posets": c("free_seq.face_posets", 0),
            "polarization.linearity_s": s("polarization.linearity_criterion", 0.0),
            "polarization.hilbert_s": s("polarization.hilbert_profile", 0.0),
            "polarization.hilbert_basis": c("hilbert.basis", 0),
            "cli.main_s": s("cli.main", 0.0),
            "cli.emit_s": s("cli.emit_json", 0.0) + s("complexes.to_json", 0.0),
        }
        out = {k: v / cases for k, v in totals.items()}
        out["complexes.koszul_useful_ratio"] = c("koszul.useful", 0) / kdeg if kdeg else 0.0
        return {name: out[name] for name, _, _ in LAYER_METRICS}

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names,
                       "fields": ["id", "name", "start", "end", "parent", "case"],
                       "spans": self.spans}, handle, separators=(",", ":"))
