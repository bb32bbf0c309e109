"""The four workloads: seeded request streams, one request at a time.

Each workload yields an endless stream of distinct requests made from the
benchmark seed, executes one request when asked (closed loop, one client)
and, after the measured loop, checks every verdict it produced against a
known answer in ``gate``.  The gate runs outside the timed region.

* ``verify-pure`` / ``verify-compiled``: one fresh ``godeaux verify
  --format json --seed S`` process per request, on the named kernel.
* ``ideals``: small seeded systems over F_5 through the public API, in
  this process, on the compiled kernel.
* ``reverify``: saved JSON reports re-checked with ``verify_witness``.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import launch

ROOT = launch.SRC.parent
GOLDEN = ROOT / "tests" / "data" / "verify_golden.json"
LAUNCH = Path(launch.__file__).resolve()
P = 5


@dataclass
class Sample:
    """Measurements of one request."""

    wall: float
    cpu: float
    rss_kb: int = 0
    failed: bool = False
    traced: bool = False


def _distinct(draw):
    """Yield ``draw()`` results, skipping any already yielded."""
    seen = set()
    while True:
        item = draw()
        key = item[0]
        if key not in seen:
            seen.add(key)
            yield item


def _report_pairs(text: str) -> int:
    """S-pairs recorded in a verify report (C7-C10 witnesses)."""
    total = 0
    for entry in json.loads(text):
        w = entry["witness"]
        total += w.get("pairs_processed", 0) + w.get("elimination_pairs", 0)
    return total


def _check_results(text: str):
    import godeaux

    return [godeaux.CheckResult(**entry) for entry in json.loads(text)]


class VerifyWorkload:
    """Fresh ``godeaux verify`` processes on one kernel backend."""

    in_process = False

    def __init__(self, name: str, backend: str, seed: int, kernel: dict):
        self.name = name
        self.backend = backend
        self.seed = seed
        self.so = kernel["so"] if backend == "compiled" else None
        self.env = dict(os.environ, GODEAUX_BACKEND=backend)
        self.outputs: list[tuple[int, int, bytes]] = []

    def requests(self):
        """Suite seed 1 first, whose report must equal the golden file,
        then distinct seeded suite seeds."""
        rng = random.Random(f"{self.name}:{self.seed}")
        seeds = _distinct(lambda: (rng.randrange(2, 2**31),))
        yield 1
        yield from (s for s, in seeds)

    def execute(self, suite_seed: int, trace_file: str | None = None,
                request: int = 0) -> Sample:
        cmd = [sys.executable, str(LAUNCH)]
        if self.so:
            cmd += ["--so", self.so]
        if trace_file is not None:
            cmd += ["--trace", trace_file, "--request", str(request)]
        cmd += ["cli", "verify", "--format", "json", "--seed", str(suite_seed)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.outputs.append((suite_seed, proc.returncode, out))
        # exit 1 is a failed check, a wrong verdict for the gate to count
        return Sample(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                      rss_kb=usage.ru_maxrss,
                      failed=proc.returncode not in (0, 1),
                      traced=trace_file is not None)

    def gate(self) -> dict:
        """Compare every report with its known answer.

        The known answer for seed S is the golden report with its single
        seed-dependent check, C12, recomputed in this process on the other
        backend; for seed 1 that is the golden output itself, byte for
        byte.  Every check of every report must also re-verify.
        """
        import godeaux

        fx = godeaux.load_fixtures()
        golden = _check_results(GOLDEN.read_text())
        other = "compiled" if self.backend == "pure" else "pure"
        wrong = 0
        for suite_seed, code, out in self.outputs:
            if code not in (0, 1):
                continue    # counted as failed: crashed or over budget
            c12 = godeaux.run_all(seed=suite_seed, only=["C12"], fixtures=fx,
                                  backend_name=other)[0]
            expected = godeaux.report([c12 if r.id == "C12" else r
                                       for r in golden])
            text = out.decode()
            ok = code == 0 and text == expected and all(
                godeaux.verify_witness(r, fixtures=fx, seed=suite_seed)
                for r in _check_results(text))
            if not ok:
                print(f"{self.name}: wrong report for seed {suite_seed} "
                      f"(exit {code})", file=sys.stderr)
                wrong += 1
        first = next((out for _, code, out in self.outputs if code == 0),
                     b"[]")
        return {"wrong": wrong,
                "work": {"requests": len(self.outputs),
                         "pairs_per_report": _report_pairs(first.decode())}}


# -- ideals ---------------------------------------------------------------------


@dataclass(frozen=True)
class IdealRequest:
    op: str
    gens: tuple
    target: object = None
    drop: int = 0


IDEAL_OPS = ("buchberger", "ideal_member", "radical_member", "eliminate")
PURE_CHECKS = 1000


def _random_poly(rng: random.Random, ring, max_terms: int, max_degree: int):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = [0] * ring.nvars
            for _ in range(rng.randint(1, max_degree)):
                exps[rng.randrange(ring.nvars)] += 1
            terms[tuple(exps)] = rng.randrange(1, P)
        poly = ring.from_terms(terms)
        if poly.total_degree() > 0:
            return poly


def ideal_requests(seed: int):
    """Distinct systems over F_5, degrevlex: 3-4 variables, 3-4
    generators of degree <= 3 with <= 5 terms; the operation cycles
    through ``IDEAL_OPS``.  Membership targets are combinations of the
    generators, so their known answer is true.

    Five-variable systems are left out, and witnessed membership gets
    three variables: it runs on the pure tracked kernel, where an
    occasional larger system took seconds and tens of MB (one took 2.1 s
    and 27 MB among 6000 requests), so throughput and peak memory
    depended on which few systems a seed happened to draw.
    """
    import godeaux

    rng = random.Random(f"ideals:{seed}")
    rings = {n: godeaux.PolyRing(tuple(f"x{i}" for i in range(n)), P,
                                 godeaux.DEGREVLEX) for n in (3, 4)}
    seen = set()
    for count in itertools.count():
        op = IDEAL_OPS[count % len(IDEAL_OPS)]
        while True:
            ring = rings[3 if op == "ideal_member" else rng.randint(3, 4)]
            gens = tuple(_random_poly(rng, ring, 5, 3)
                         for _ in range(rng.randint(3, 4)))
            key = hashlib.sha256(
                repr((ring.nvars, tuple(map(str, gens)))).encode()).digest()
            if key not in seen:
                seen.add(key)
                break
        target = None
        if op in ("ideal_member", "radical_member"):
            target = ring.zero()
            while target.is_zero():
                for g in gens:
                    target = target + _random_poly(rng, ring, 2, 1) * g
        yield IdealRequest(op=op, gens=gens, target=target,
                           drop=rng.randrange(ring.nvars))


def _ideal_call(req: IdealRequest, backend_name=None):
    import godeaux

    gens = list(req.gens)
    if req.op == "buchberger":
        return godeaux.buchberger(gens, backend_name=backend_name)
    if req.op == "ideal_member":
        return godeaux.ideal_member(req.target, gens, witness=True,
                                    backend_name=backend_name)
    if req.op == "radical_member":
        return godeaux.radical_member(req.target, gens,
                                      backend_name=backend_name)
    return godeaux.eliminate(gens, [req.drop], backend_name=backend_name)


class InProcessWorkload:
    """Requests executed by calls into the package in this process, on
    the compiled kernel loaded from ``so``.

    Right after each request, outside the timed region, its answer is
    reduced to a small summary; ``gate`` checks the summaries once the
    measured loop is over, so checking adds neither to the heap nor to
    the peak memory of the measured loop.
    """

    in_process = True
    backend = "compiled"

    def __init__(self, name: str, seed: int, kernel: dict):
        self.name = name
        self.seed = seed
        self.so = kernel["so"]
        self.summaries: list = []    # None for a request that raised

    def call(self, request):
        raise NotImplementedError

    def summarize(self, request, answer):
        raise NotImplementedError

    def execute(self, request, tracer=None, index: int = 0) -> Sample:
        if tracer is not None:
            tracer.request = index
            tracer.install()
        start_cpu = time.process_time()
        start = time.perf_counter()
        try:
            answer = self.call(request)
            failed = False
        except Exception:
            traceback.print_exc()
            answer, failed = None, True
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        if tracer is not None:
            tracer.restore()
        self.summaries.append(None if failed
                              else self.summarize(request, answer))
        return Sample(wall=wall, cpu=cpu, failed=failed,
                      traced=tracer is not None)


class IdealsWorkload(InProcessWorkload):
    def requests(self):
        return ideal_requests(self.seed)

    def call(self, request):
        return _ideal_call(request)

    def summarize(self, req, answer):
        if req.op == "buchberger":
            return (tuple(map(str, answer)), answer.pairs_processed,
                    answer.backend)
        if req.op == "ideal_member":
            member, witness = answer
            return member, witness.target == req.target and witness.verify()
        if req.op == "radical_member":
            return answer
        return tuple(map(str, answer))

    def gate(self) -> dict:
        """Every generator reduces to zero modulo its returned basis, and
        the first ``PURE_CHECKS`` bases and pair counts of a run equal the
        pure kernel's; the cap keeps the cost of the check from growing
        with throughput.  Membership and radical answers are true, and
        membership witnesses expand to their target.  Eliminated
        generators are free of the dropped variable and reduce to zero
        modulo the degrevlex basis of the ideal.  The pure kernel is not
        asked for the elimination itself: on a block order it can take
        minutes where the compiled kernel takes a second."""
        import godeaux

        wrong = 0
        work = {"requests": len(self.summaries), "pairs_processed": 0,
                "basis_polys": 0}
        for req, summary in zip(self.requests(), self.summaries):
            work[req.op] = work.get(req.op, 0) + 1
            if summary is None:
                continue
            if req.op == "buchberger":
                ring = req.gens[0].ring
                basis = [godeaux.parse_poly(ring, text) for text in summary[0]]
                ok = summary[2] == "compiled" and all(
                    godeaux.reduce(g, basis).is_zero() for g in req.gens)
                if work["buchberger"] <= PURE_CHECKS:
                    gb = godeaux.buchberger(list(req.gens),
                                            backend_name="pure")
                    ok = ok and summary[:2] == (tuple(map(str, gb)),
                                                gb.pairs_processed)
                work["pairs_processed"] += summary[1]
                work["basis_polys"] += len(summary[0])
            elif req.op == "ideal_member":
                ok = summary == (True, True)
            elif req.op == "radical_member":
                ok = summary is True
            else:
                ring = req.gens[0].ring
                gb = godeaux.buchberger(list(req.gens))
                kept = [godeaux.parse_poly(ring, text) for text in summary]
                ok = all(e[req.drop] == 0 for f in kept for e in f.terms()) \
                    and all(godeaux.reduce(f, gb).is_zero() for f in kept)
            if not ok:
                print(f"ideals: wrong {req.op} answer for "
                      f"{list(map(str, req.gens))}", file=sys.stderr)
                wrong += 1
        return {"wrong": wrong, "work": work}


# -- reverify -------------------------------------------------------------------


TAMPER_SHARE = 0.25


def _cofactor_sites(check_id: str, witness: dict) -> list[dict]:
    """The combination witnesses (with cofactor lists) inside one witness."""
    if check_id == "C2":
        return [witness["powers"][name]["witness"]
                for name in sorted(witness["powers"])]
    if check_id == "C7":
        return [wit for side in sorted(witness["membership"])
                for wit in witness["membership"][side]]
    if check_id in ("C8", "C9", "C10"):
        return [witness["unit_witness"]]
    return []


def tamper(results: list, rng: random.Random, fx) -> tuple[list, str]:
    """Change one coefficient of one cofactor; return the results and the
    id of the check whose witness no longer expands."""
    import godeaux

    candidates = [i for i, r in enumerate(results)
                  if _cofactor_sites(r.id, r.witness)]
    index = rng.choice(candidates)
    result = results[index]
    witness = copy.deepcopy(result.witness)
    site = rng.choice(_cofactor_sites(result.id, witness))
    ring = fx.ring if result.id == "C2" else fx.presentation_ring
    k = rng.randrange(len(site["cofactors"]))
    cofactor = godeaux.parse_poly(ring, site["cofactors"][k])
    exps = (rng.choice(sorted(cofactor.terms())) if not cofactor.is_zero()
            else (0,) * ring.nvars)
    site["cofactors"][k] = str(cofactor + ring.monomial(exps,
                                                        rng.randrange(1, P)))
    out = list(results)
    out[index] = replace(result, witness=witness)
    return out, result.id


class ReverifyWorkload(InProcessWorkload):
    """Saved reports from distinct seeds, a seeded share of them tampered."""

    def __init__(self, name: str, seed: int, kernel: dict):
        super().__init__(name, seed, kernel)
        import godeaux

        self.fx = godeaux.load_fixtures()
        rng = random.Random(f"reverify-base:{seed}")
        self.base = godeaux.run_all(seed=rng.randrange(2, 2**31),
                                    fixtures=self.fx)

    def requests(self):
        import godeaux

        rng = random.Random(f"reverify:{self.seed}")

        def draw():
            suite_seed = rng.randrange(2, 2**31)
            c12 = godeaux.run_all(seed=suite_seed, only=["C12"],
                                  fixtures=self.fx)[0]
            results = [c12 if r.id == "C12" else r for r in self.base]
            bad = None
            if rng.random() < TAMPER_SHARE:
                results, bad = tamper(results, rng, self.fx)
            text = godeaux.report(results)
            digest = hashlib.sha256(text.encode()).digest()
            return digest, text, tuple(r.id != bad for r in results)

        return (request[1:] for request in _distinct(draw))

    def call(self, request):
        import godeaux

        text, _ = request
        return tuple(godeaux.verify_witness(godeaux.CheckResult(**entry),
                                            fixtures=self.fx)
                     for entry in json.loads(text))

    def summarize(self, request, answer):
        _, expected = request
        return expected, answer

    def gate(self) -> dict:
        """Untampered reports verify in every check; a tampered one fails
        exactly the check whose cofactor was changed."""
        wrong = sum(1 for summary in self.summaries
                    if summary is not None and summary[0] != summary[1])
        if wrong:
            print(f"reverify: {wrong} reports got verdicts that differ from "
                  "the known answer", file=sys.stderr)
        tampered = sum(1 for summary in self.summaries
                       if summary is not None and not all(summary[0]))
        return {"wrong": wrong, "work": {"requests": len(self.summaries),
                                         "tampered": tampered}}


def make(name: str, seed: int, kernel: dict):
    if name == "verify-pure":
        return VerifyWorkload(name, "pure", seed, kernel)
    if name == "verify-compiled":
        return VerifyWorkload(name, "compiled", seed, kernel)
    if name == "ideals":
        return IdealsWorkload(name, seed, kernel)
    if name == "reverify":
        return ReverifyWorkload(name, seed, kernel)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-pure", "verify-compiled", "ideals", "reverify")
