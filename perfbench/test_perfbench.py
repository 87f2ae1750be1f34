#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Each output check must pass on the daemon's real answers and fail on a
deliberately corrupted copy, so none passes vacuously. The in-process traced
replay must reach the daemon's verdicts, edge counts, maximal sets, cores
and detector-query counts by its own path. Builds `.bench_build/` first.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import client  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MVRCD, TRACER = run.build()


class DaemonTestCase(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.daemon = client.Daemon(MVRCD)
        cls.conn = client.Connection(cls.daemon.port)
        cls.ask = checks.Daemon(cls.conn.call)

    @classmethod
    def tearDownClass(cls):
        cls.conn.close()
        cls.daemon.stop()

    def info(self, sql, settings, **extra):
        return workloads.SessionInfo(family="test", settings=settings, base=sql.name,
                                     schema=sql.schema, **extra)

    def answer(self, sql, settings, request):
        return self.ask.ask(settings, sql.schema, sql.programs, [request])[0]


class OutputChecksFailOnCorruptAnswers(DaemonTestCase):
    def test_figures(self):
        self.assertEqual(checks.check_figures(self.ask), [])

        def corrupt(request):
            response, latency = self.conn.call(request)
            if request["cmd"] == "subsets":
                response = dict(response, maximal=response["maximal"][1:])
            return response, latency
        self.assertTrue(checks.check_figures(checks.Daemon(corrupt)))

    def test_maximal_sets(self):
        sql = inputs.tpcc()
        info = self.info(sql, "attr+fk+mvrc")
        answer = self.answer(sql, info.settings, {"cmd": "subsets"})
        self.assertEqual(checks.check_maximal_sets(self.ask, info, sql.programs, answer), [])
        grown = copy.deepcopy(answer)
        outside = [n for n in sql.program_names() if n not in grown["maximal"][0]]
        grown["maximal"][0].append(outside[0])
        self.assertTrue(checks.check_maximal_sets(self.ask, info, sql.programs, grown))
        shrunk = copy.deepcopy(answer)
        shrunk["maximal"][0] = shrunk["maximal"][0][:1]
        self.assertTrue(checks.check_maximal_sets(self.ask, info, sql.programs, shrunk))

    def test_cores(self):
        sql = inputs.random_programs(11, 24)
        info = self.info(sql, "attr+fk+mvrc")
        answer = self.answer(sql, info.settings, {"cmd": "subsets"})
        self.assertEqual(answer["search"], "core_guided")
        self.assertTrue(answer["cores"])
        self.assertEqual(checks.check_cores(self.ask, info, sql.programs, answer), [])
        padded = copy.deepcopy(answer)
        core = padded["cores"][0]
        core.append(next(n for n in sql.program_names() if n not in core))
        self.assertTrue(checks.check_cores(self.ask, info, sql.programs, padded))
        robust = copy.deepcopy(answer)
        robust["cores"][0] = answer["maximal"][0][:1]
        self.assertTrue(checks.check_cores(self.ask, info, sql.programs, robust))

    def test_replicated_tpcc(self):
        sql = inputs.tpcc_k(2)
        answer = self.answer(sql, "tpl+mvrc", {"cmd": "check"})
        self.assertEqual(checks.check_replicated_tpcc(self.ask, [(2, "tpl+mvrc", answer)]), [])
        for key in ("num_edges", "num_counterflow_edges", "num_unfolded"):
            bad = dict(answer, **{key: answer[key] + 1})
            self.assertTrue(checks.check_replicated_tpcc(self.ask, [(2, "tpl+mvrc", bad)]), key)

    def test_fresh_reload(self):
        sql = inputs.smallbank()
        info = self.info(sql, "tpl+fk+rc")
        step = workloads.Step({"cmd": "check", "session": "x"}, "x", sql.programs)
        answer = self.answer(sql, info.settings, {"cmd": "check"})
        self.assertEqual(checks.check_fresh_reload(self.ask, info, step, answer), [])
        for key in checks.CHECK_FIELDS:
            value = answer[key]
            bad = dict(answer, **{key: (not value) if isinstance(value, bool) else value + 1})
            self.assertTrue(checks.check_fresh_reload(self.ask, info, step, bad), key)

    def test_auction(self):
        sql = inputs.auction_n(4)
        answer = self.answer(sql, "attr+fk+mvrc", {"cmd": "check"})
        self.assertEqual(checks.check_auction([(4, "attr+fk+mvrc", answer)]), [])
        self.assertTrue(checks.check_auction([(4, "attr+fk+mvrc", dict(answer, robust=False))]))
        self.assertTrue(checks.check_auction(
            [(4, "attr+fk+mvrc", dict(answer, num_edges=answer["num_edges"] - 1))]))

    def test_certification(self):
        request = dict({"cmd": "counterexample"}, **workloads.CE_MEDIUM)
        robust = self.answer(inputs.auction(), "attr+fk+mvrc", request)
        found = self.answer(inputs.smallbank(), "attr+fk+mvrc", request)
        self.assertEqual(checks.check_certification(request, robust, True, False), [])
        self.assertEqual(checks.check_certification(request, found, False, True), [])
        self.assertTrue(checks.check_certification(request, dict(robust, found=True), True))
        self.assertTrue(checks.check_certification(request, dict(robust, budget_exhausted=False),
                                                   True))
        over = dict(robust, schedules_checked=request["max_schedules"] + 2)
        self.assertTrue(checks.check_certification(request, over, True))
        self.assertTrue(checks.check_certification(request, found, False, False))


class SyntheticChecks(unittest.TestCase):
    def test_monotone(self):
        robust, not_robust = {"robust": True}, {"robust": False}
        good = [("x", "tpl+mvrc", not_robust), ("x", "attr+fk+rc", robust)]
        self.assertEqual(checks.check_monotone(good), [])
        for weaker, stronger in (("tpl+mvrc", "attr+mvrc"), ("attr+mvrc", "attr+fk+mvrc"),
                                 ("tpl+fk+mvrc", "tpl+fk+rc")):
            bad = [("x", weaker, robust), ("x", stronger, not_robust)]
            self.assertTrue(checks.check_monotone(bad), (weaker, stronger))
        incomparable = [("x", "tpl+rc", robust), ("x", "attr+mvrc", not_robust)]
        self.assertEqual(checks.check_monotone(incomparable), [])

    def test_rounds_repeat(self):
        rounds = [[{"ok": True, "robust": True, "elapsed_us": 5}],
                  [{"ok": True, "robust": True, "elapsed_us": 9}]]
        self.assertEqual(checks.check_rounds_repeat(rounds), [])
        rounds[1][0]["robust"] = False
        self.assertTrue(checks.check_rounds_repeat(rounds))


class TracedReplayAgreesWithDaemon(unittest.TestCase):
    """The replay's from-scratch totals equal the daemon's answers on every
    workload, and a corrupted total is caught."""

    def test_every_workload(self):
        for workload in sorted(workloads.WORKLOADS):
            with self.subTest(workload=workload):
                plan = workloads.WORKLOADS[workload](7)
                run_dir = os.path.join(run.RUN_ROOT, "test-%s" % workload)
                os.makedirs(run_dir, exist_ok=True)
                try:
                    result = run.run_daemon_pass(MVRCD, plan, 0.5, run_dir)
                    self.assertEqual(result["failures"], [])
                    self.assertEqual(result["rec"].failed, 0)
                    metrics, failures, totals = run.trace_metrics(TRACER, plan, result, 1.0,
                                                                  run_dir)
                finally:
                    subprocess.run(["rm", "-rf", run_dir], check=False)
                self.assertEqual(failures, [])
                spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
                self.assertEqual(set(metrics), {m["name"] for m in spec["per_layer"]})
                self.assert_corruptions_caught(plan, result, totals)

    def assert_corruptions_caught(self, plan, result, totals):
        kinds = {}
        for index, total in enumerate(totals):
            for key in ("robust", "num_edges", "maximal", "detector_queries", "found"):
                if key in total:
                    kinds.setdefault(key, index)
        for key, index in kinds.items():
            bad = copy.deepcopy(totals)
            value = bad[index][key]
            if isinstance(value, bool):
                bad[index][key] = not value
            elif isinstance(value, list):
                bad[index][key] = value[1:] if len(value) > 1 else [["no such program"]]
            else:
                bad[index][key] = value + 1
            self.assertTrue(checks.compare_trace_totals(plan, result, bad), key)


if __name__ == "__main__":
    unittest.main()
