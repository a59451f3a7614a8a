import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import dilations
from dilations import harness
from dilations.cli import main
from dilations.dilation import (DilationClass, DilationSpec, RankDeficitWarning,
                                classify_dilation, dilate, generalized_power)
from dilations.errors import DomainError, SearchBudgetExceeded
from dilations.graphs import cycle
from dilations.harness import (SUITE_SCALES, SUITES, FailureRecord,
                               VerificationReport,
                               crosscheck_extremal_gamma0,
                               crosscheck_extremal_gamma1, verify_counterexample,
                               run_suites, verify_hereditary, verify_nonextremal)
from dilations.hypergraphs import Hypergraph
from dilations.families import _gamma1_kind, in_family_g2b, union_family_member
from dilations.invariants import DEFAULT_NODE_CAP, check_certificate, domination_number
from importlib import resources


def report_schema():
    text = resources.files("dilations").joinpath(
        "schemas/verification_report.schema.json").read_text()
    return json.loads(text)


class TestSuitesGreen:
    def test_hereditary(self):
        r = verify_hereditary(4, samples_per_graph=2, seed=7)
        assert r.ok
        assert r.pass_count == r.instance_count == 9
        assert r.pass_count + len(r.failures) == r.instance_count

    def test_extremal_gamma1(self):
        r = crosscheck_extremal_gamma1(5)
        assert r.ok and r.pass_count == r.instance_count == 30

    def test_extremal_gamma0(self):
        r = crosscheck_extremal_gamma0(5)
        assert r.ok and r.pass_count == r.instance_count == 30

    def test_nonextremal(self):
        r = verify_nonextremal(4)
        assert r.ok and r.pass_count == r.instance_count

    def test_counterexample(self):
        r = verify_counterexample(4)
        assert r.ok and r.pass_count == r.instance_count == 3

    @pytest.mark.parametrize("suite", sorted(SUITE_SCALES))
    def test_scale_limits(self, suite):
        spec = SUITE_SCALES[suite]
        for scale in (spec.cap + 1, 1):
            with pytest.raises(DomainError, match=f"2 <= {spec.param} <= {spec.cap}"):
                SUITES[suite](scale)

    def test_rank_deficit_warning_not_silenced_for_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verify_counterexample(2)
            dilate(cycle(3), DilationSpec(6, (1, 1, 1), (0, 0, 0)))
        assert sum(issubclass(w.category, RankDeficitWarning) for w in caught) == 1


class TestDeterminism:
    def test_reports_byte_identical(self):
        a = verify_hereditary(4, samples_per_graph=1, seed=3)
        b = verify_hereditary(4, samples_per_graph=1, seed=3)
        assert a.to_text() == b.to_text()
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_seed_in_report(self):
        r = verify_hereditary(3, seed=9)
        assert r.seed == 9

    def test_parallel_matches_serial(self):
        a = crosscheck_extremal_gamma1(4, jobs=1)
        b = crosscheck_extremal_gamma1(4, jobs=2)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_worker_count_clamped(self, monkeypatch):
        # pure arithmetic on the pool size; no pool is started
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        assert harness._worker_count(10_000, 500) == 4
        assert harness._worker_count(3, 500) == 3
        assert harness._worker_count(8, 2) == 2
        assert harness._worker_count(8, 0) == 0
        # the CPUs this process may run on, not all of the machine's
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {1})
        assert harness._worker_count(2, 100) == 1
        # where the platform has no affinity mask, the CPU count
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert harness._worker_count(10_000, 500) == 8
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._worker_count(8, 500) == 1


class TestReportFormats:
    def test_json_schema(self):
        r = verify_nonextremal(3)
        jsonschema.validate(json.loads(r.to_json()), report_schema())

    def test_csv_shape(self):
        r = verify_counterexample(3)
        lines = r.to_csv().strip().splitlines()
        assert lines[0] == "suite,instance,status,check,expected,got"
        assert len(lines) == 1 + r.instance_count  # all pass: one row each

    def test_failure_record_rendering(self):
        rec = FailureRecord("n3:Bw", ({"check": "nu", "expected": 1, "got": 2},),
                            {"nu_H": domination_number(Hypergraph(1, [])).to_json()})
        report = VerificationReport("demo", {}, None, instances=["n3:Bw"], failures=[rec])
        text = report.to_text()
        assert "FAIL n3:Bw :: nu" in text
        assert "RESULT: FAIL" in text
        assert not report.ok
        csv_text = report.to_csv()
        assert "fail" in csv_text
        jsonschema.validate(json.loads(report.to_json()), report_schema())

    def test_soft_failures_do_not_fail_report(self):
        rec = FailureRecord("x", ({"check": "c", "expected": 1, "got": 2},),
                            {}, soft=True)
        report = VerificationReport("demo", {}, None, instances=["x"], failures=[rec])
        assert report.ok
        assert "FLAGGED" in report.to_text()


class TestFailureCertificates:
    def test_attached_certificates_recheck(self):
        # build a tiny failing comparison by hand and re-verify its certificate
        h = Hypergraph.from_edge_sets(3, [[0, 1], [1, 2]])
        cert = domination_number(h)
        rec = FailureRecord("demo", ({"check": "gamma", "expected": 9,
                                      "got": cert.value},),
                            {"gamma_H": cert.to_json()})
        stored = rec.certificates["gamma_H"]
        from dilations.invariants import Certificate
        rebuilt = Certificate(stored["parameter"], stored["value"],
                              tuple(stored["witness"]), stored["mode"],
                              stored["node_count"])
        assert check_certificate(h, rebuilt)


def _flip_on_even_n(fn, field):
    """fn with the boolean `field` of its verdict negated on graphs of even order."""
    def flipped(g, *args, **kwargs):
        verdict = fn(g, *args, **kwargs)
        return dataclasses.replace(verdict, **{field: getattr(verdict, field) != (g.n % 2 == 0)})
    return flipped


def _swap_gamma_classes(h, w):
    swap = {DilationClass.GAMMA0: DilationClass.GAMMA1, DilationClass.GAMMA1: DilationClass.GAMMA0}
    cls = classify_dilation(h, w)
    return swap.get(cls, cls)


def _flip_equal_on_even_nu(g, tau, nu):
    """The extremal gamma1 kind with "equal" and "strict" swapped where nu(G)
    is even."""
    kind = _gamma1_kind(g, tau, nu)
    return {"equal": "strict", "strict": "equal"}.get(kind, kind) if nu % 2 == 0 else kind


def _raise_gamma_on_even_n(constructions):
    """constructions with the predicted gamma raised by 1 on even n."""
    def raised(n_max):
        for key, g, power_s, n, gamma in constructions(n_max):
            yield key, g, power_s, n, gamma + (n % 2 == 0)
    return raised


class TestWitnessRetry:
    # The driver's first pass skips the gamma/tau witness passes and runs a
    # failing task again with them, so its record is what a single run with
    # witness passes gives. Wrong verdicts or predictions are patched in to
    # make some tasks fail; at jobs=1 the patches reach the workers.
    @pytest.mark.parametrize("suite, scales, name, fake", [
        (lambda: verify_hereditary(4, samples_per_graph=1, seed=7), {"hereditary": 4},
         "classify_dilation", _swap_gamma_classes),
        (lambda: crosscheck_extremal_gamma1(5), {"extremal-gamma1": 5},
         "_gamma1_kind", _flip_equal_on_even_nu),
        (lambda: crosscheck_extremal_gamma0(5), {"extremal-gamma0": 5},
         "union_family_member", _flip_on_even_n(union_family_member, "member")),
        (lambda: verify_nonextremal(4), {"nonextremal": 4},
         "_constructions", _raise_gamma_on_even_n(harness._constructions)),
        (lambda: verify_counterexample(5), {"counterexample": 5},
         "in_family_g2b", _flip_on_even_n(in_family_g2b, "member")),
    ], ids=["hereditary", "extremal-gamma1", "extremal-gamma0", "nonextremal",
            "counterexample"])
    def test_failure_records_carry_lex_witnesses(self, monkeypatch, suite, scales, name,
                                                 fake):
        monkeypatch.setattr(harness, name, fake)
        tasks = list(harness._tasks(scales, 7, 1, DEFAULT_NODE_CAP))
        report = suite()
        failures = [f for f in report.failures if not f.instance.endswith(":coverage")]
        with_witnesses = [harness._worker(task, lex_witness=True) for task in tasks]
        assert failures == sorted((FailureRecord(key, tuple(checks), certs, soft)
                                   for rows in with_witnesses
                                   for _suite, key, checks, certs, soft in rows if checks),
                                  key=lambda f: f.instance)
        assert 0 < len(failures) < len(tasks)
        # the records differ from the first pass's, so the second pass is needed
        assert any(harness._worker(task, lex_witness=False) != rows
                   for task, rows in zip(tasks, with_witnesses) if any(r[2] for r in rows))

    @pytest.fixture(scope="class")
    def unpatched_all(self):
        return run_suites(sorted(SUITES), 5, seed=7)

    @pytest.mark.parametrize("suite, name, fake", [
        ("hereditary", "classify_dilation", _swap_gamma_classes),
        ("extremal-gamma1", "_gamma1_kind", _flip_equal_on_even_nu),
        ("extremal-gamma0", "union_family_member",
         _flip_on_even_n(union_family_member, "member")),
    ])
    def test_verify_all_changes_only_the_failing_suite(self, monkeypatch, unpatched_all,
                                                       suite, name, fake):
        # in the shared sweep a graph with a failing row runs again whole;
        # the other suites' rows of that graph must come out as before
        monkeypatch.setattr(harness, name, fake)
        patched = run_suites(sorted(SUITES), 5, seed=7)
        alone = run_suites([suite], 5, seed=7)[0]
        for before, after in zip(unpatched_all, patched):
            if after.suite == suite:
                assert after.failures
                assert after.to_json_dict() == alone.to_json_dict()
            else:
                assert after.to_json_dict() == before.to_json_dict()


class TestSharedSweep:
    @pytest.mark.parametrize("max_n, jobs", [(6, 1), (6, 2), (None, 1)])
    def test_verify_all_reports_equal_suites_alone(self, capsys, max_n, jobs):
        scale_args = [] if max_n is None else ["--max-n", str(max_n)]

        def reports(suite, *args):
            assert main(["verify", suite, *args, "--jobs", str(jobs), "--format", "json",
                         "--no-timestamp"]) == 0
            return json.loads(capsys.readouterr().out)["result"]["reports"]

        swept = reports("all", *scale_args)
        assert [r["suite"] for r in swept] == sorted(SUITES)
        for report in swept:
            spec = SUITE_SCALES[report["suite"]]
            scale = spec.default if max_n is None else min(max_n, spec.cap)
            assert [report] == reports(report["suite"], "--max-n", str(scale))

    def test_verify_all_runs_two_suites_through_their_entries(self, monkeypatch):
        # the benchmark times nonextremal and counterexample by wrapping their
        # SUITES entries, so verify all must call each of them once
        calls = Counter()

        def counted(name, entry):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return entry(*args, **kwargs)
            return wrapped

        for name in ("nonextremal", "counterexample"):
            monkeypatch.setitem(SUITES, name, counted(name, SUITES[name]))
        reports = run_suites(sorted(SUITES), 5)
        assert calls == {"nonextremal": 1, "counterexample": 1}
        assert [r.suite for r in reports] == sorted(SUITES)

    def test_shared_solves_run_once_per_graph(self, monkeypatch):
        # solves are counted per graph task and per instance, by content; a
        # sampled host of hereditary may equal G's hypergraph or a power by
        # content, so solves of the sampled hosts are left out
        calls = Counter()
        needed = {}
        current = []
        sampled = []

        def counted(solve, parameter):
            def wrapped(h, *args, **kwargs):
                if current and not any(h is s for s in sampled):
                    calls[current[-1], parameter, h.m, tuple(h.edge_masks)] += 1
                return solve(h, *args, **kwargs)
            return wrapped

        def recorded(build):
            def wrapped(*args, **kwargs):
                h, w = build(*args, **kwargs)
                sampled.append(h)
                return h, w
            return wrapped

        def tracked_worker(task, lex_witness):
            g, key, suites = task[:3]
            if suites[0][0] in ("nonextremal", "counterexample"):
                return worker(task, lex_witness)  # one power each, nothing shared
            needed[key] = [Hypergraph.from_graph(g), generalized_power(g, 4, 1)[0],
                           generalized_power(g, 4, 2)[0]]
            current.append(key)
            try:
                return worker(task, lex_witness)
            finally:
                current.pop()

        worker = harness._worker
        monkeypatch.setattr(harness, "_worker", tracked_worker)
        for name in ("dilate", "random_dilation", "random_berge"):
            monkeypatch.setattr(harness, name, recorded(getattr(harness, name)))
        for name, parameter in (("domination_number", "gamma"), ("matching_number", "nu"),
                                ("transversal_number", "tau")):
            monkeypatch.setattr(harness, name, counted(getattr(harness, name), parameter))
        assert main(["verify", "all", "--max-n", "5", "--jobs", "1", "--format", "json",
                     "--no-timestamp"]) == 0
        assert len(needed) == 30  # connected graphs on 2 to 5 vertices
        for key, hosts in needed.items():
            # one solve per host and parameter; the two powers of K2 are equal
            per_content = Counter((h.m, tuple(h.edge_masks)) for h in hosts)
            for content, count in per_content.items():
                for parameter in ("gamma", "nu", "tau"):
                    assert calls[(key, parameter, *content)] == count, (key, parameter)


class TestProcessPool:
    @pytest.fixture
    def started(self, monkeypatch):
        """The pools started from here on, with 4 CPUs faked so that jobs >= 2
        starts one on any machine."""
        pools = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        return pools

    def test_verify_all_starts_one_pool(self, started):
        names = sorted(SUITES)
        parallel = run_suites(names, 5, jobs=2)
        assert [p._max_workers for p in started] == [2]
        assert multiprocessing.active_children() == []
        serial = run_suites(names, 5)
        assert len(started) == 1
        assert [r.to_json_dict() for r in parallel] == [r.to_json_dict() for r in serial]

    def test_pool_shut_down_when_a_sweep_raises(self, started):
        with pytest.raises(SearchBudgetExceeded):
            run_suites(sorted(SUITES), 5, node_cap=1, jobs=2)
        assert len(started) == 1
        assert multiprocessing.active_children() == []

    def test_sweep_that_can_use_more_workers_replaces_the_pool(self, started):
        # counterexample at 3 has two tasks, hereditary at 3 three graphs
        names = ["counterexample", "hereditary"]
        parallel = run_suites(names, 3, jobs=4)
        assert [p._max_workers for p in started] == [2, 3]
        assert multiprocessing.active_children() == []
        assert ([r.to_json_dict() for r in parallel]
                == [r.to_json_dict() for r in run_suites(names, 3)])

    def test_suite_function_owns_its_pool(self, started):
        crosscheck_extremal_gamma1(4, jobs=2)
        assert len(started) == 1
        assert multiprocessing.active_children() == []


class TestColdStart:
    def test_serial_use_loads_no_pool_machinery(self):
        # a fresh interpreter, since this one has loaded the pool modules
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            import dilations, dilations.cli

            def pool_modules():
                return sorted(m for m in sys.modules
                              if m.startswith(("concurrent", "multiprocessing",
                                               "_multiprocessing")))

            dilations.load_g2nb_candidates()
            loaded = {"import": pool_modules()}
            with contextlib.redirect_stdout(io.StringIO()):
                code = dilations.cli.main(["verify", "all", "--max-n", "4",
                                           "--format", "json", "--no-timestamp"])
            loaded["verify"] = pool_modules()
            print(json.dumps({"code": code, "loaded": loaded}))
        """)
        src = str(Path(dilations.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        result = json.loads(out.splitlines()[-1])
        assert result == {"code": 0, "loaded": {"import": [], "verify": []}}

