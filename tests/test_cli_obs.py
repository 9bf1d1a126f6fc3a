"""CLI observability verbs (`stats --watch`, `trace --prom`, `slo`,
`incidents`) and the deterministic SLO acceptance scenario: a seeded
workload with an injected latency fault trips the burn-rate alert at an
exact request index, the flight recorder dumps a JSONL incident naming
the offending trace, and the breached latency bucket's exemplar
resolves back to that same trace."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    AlertSink,
    FlightRecorder,
    Observability,
    SLOEngine,
    SLOPolicy,
)
from repro.serve import ServiceConfig, SolveService
from repro.serve.workload import revalued_workload
from repro.validate import FaultInjector


class TestStatsWatch:
    def test_watch_mode_replays_and_prints_final_snapshot(self, capsys):
        rc = main(["stats", "--requests", "8", "--matrices", "2",
                   "--watch", "--interval", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "--- final (8 requests replayed) ---" in out
        assert "service stats" in out
        # Any intermediate snapshots printed by the watch loop follow
        # the same progress-header format.
        for line in out.splitlines():
            if line.startswith("--- ") and "final" not in line:
                assert line.endswith("requests completed ---")


class TestTraceExitCodes:
    def test_trace_prom_export_succeeds(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        rc = main(["trace", "--size", "96", "--prom", str(prom)])
        capsys.readouterr()
        assert rc == 0
        assert "# TYPE repro_b_writes_total counter" in prom.read_text()

    def test_trace_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            main(["trace", "--method", "no-such-method"])


class TestSLOAcceptance:
    """The ISSUE acceptance scenario, library-level."""

    def _run(self, tmp_path):
        policy = SLOPolicy("p", objective_s=0.05, target=0.5,
                           window=8, fast_window=2)
        sink = AlertSink(jsonl_path=tmp_path / "alerts.jsonl")
        engine = SLOEngine([policy], sink=sink)
        recorder = FlightRecorder(capacity=64, incident_dir=tmp_path)
        obs = Observability(slo=engine, recorder=recorder)
        # The first two measured solves sleep 80ms >> the 50ms objective;
        # with one worker, sequential submission and every plan built
        # by an unobserved warm-up pass (a cold build can itself cross
        # the objective on a loaded host), the breaches are exactly
        # requests 1 and 2, every run, on any host.
        inj = FaultInjector(solve_delay_s=0.08, max_faults=2)
        workload = revalued_workload(10, seed=0, tenants=("acme", "beta"))
        requests = list(workload.requests())
        with SolveService(ServiceConfig(max_workers=1)) as svc:
            for r in requests:
                svc.solve(r.A, r.b, tenant=r.tenant)
            svc.install_fault_injector(inj)
            svc.set_observability(obs)
            for r in requests:
                svc.solve(r.A, r.b, tenant=r.tenant)
            records = svc.records()[len(requests):]
        return obs, engine, sink, recorder, records

    def test_alert_fires_at_known_request_index(self, tmp_path):
        obs, engine, sink, recorder, records = self._run(tmp_path)
        assert engine.seq == 10
        assert len(sink.alerts) == 1
        alert = sink.alerts[0]
        # Fast window fills at the second request, both windows are
        # fully burning -> the alert fires there, not later.
        assert alert.seq == 2 and alert.n_observed == 2
        assert alert.fast_burn == pytest.approx(2.0)
        assert alert.slow_burn == pytest.approx(2.0)
        # The offending trace is the second (breaching) request's.
        assert alert.trace_id == records[1].trace_id
        assert records[1].tenant == "beta"
        assert records[1].wall_time_s > 0.05
        # Delivered to the JSONL sink too.
        lines = (tmp_path / "alerts.jsonl").read_text().splitlines()
        assert [json.loads(ln)["seq"] for ln in lines] == [2]

    def test_incident_jsonl_contains_offending_trace(self, tmp_path):
        obs, engine, sink, recorder, records = self._run(tmp_path)
        assert [i.reason for i in recorder.incidents] == ["slo:p"]
        loaded = FlightRecorder.load_incidents(tmp_path)
        assert len(loaded) == 1
        inc = loaded[0]
        assert inc.reason == "slo:p"
        assert inc.trace_id == sink.alerts[0].trace_id
        assert inc.detail["policy"] == "p"
        # The frozen ring holds the offending request's frame.
        offending = [f for f in inc.frames
                     if f["trace_id"] == inc.trace_id]
        assert len(offending) == 1
        assert offending[0]["tenant"] == "beta"
        assert offending[0]["wall_s"] > 0.05

    def test_exemplar_in_breached_bucket_resolves_to_trace(self, tmp_path):
        obs, engine, sink, recorder, records = self._run(tmp_path)
        alert = sink.alerts[0]
        ex = obs.serve_metrics.request_latency.exemplars(tenant="beta")
        breached = {le: e for le, e in ex.items()
                    if e["value"] > alert.objective_s}
        assert breached, f"no exemplar above the objective in {ex}"
        (le, e), = breached.items()
        assert e["exemplar"] == str(alert.trace_id)
        # ...and that trace id names a real span tree.
        tree = obs.tracer.render_tree(trace_id=int(e["exemplar"]))
        assert "serve.request" in tree
        assert "tenant=beta" in tree

    def test_slo_families_exported(self, tmp_path):
        obs, engine, sink, recorder, records = self._run(tmp_path)
        from test_obs_metrics import parse_prometheus

        fams = parse_prometheus(obs.to_prometheus())
        assert fams["repro_slo_alerts_total"]["samples"][
            ("repro_slo_alerts_total", (("policy", "p"),))
        ] == 1
        s = fams["repro_slo_requests_total"]["samples"]
        assert s[("repro_slo_requests_total",
                  (("policy", "p"), ("verdict", "breach")))] == 2
        assert s[("repro_slo_requests_total",
                  (("policy", "p"), ("verdict", "good")))] == 8
        assert fams["repro_slo_budget_remaining"]["type"] == "gauge"
        assert fams["repro_slo_burn_rate"]["samples"][
            ("repro_slo_burn_rate",
             (("policy", "p"), ("window", "fast")))
        ] == 0.0  # recovered by the end of the run


class TestSLOCommand:
    def test_slo_verb_end_to_end(self, tmp_path, capsys):
        inc_dir = tmp_path / "inc"
        alerts = tmp_path / "alerts.jsonl"
        rc = main([
            "slo", "--requests", "12", "--tenants", "acme,beta",
            "--objective-ms", "50", "--target", "0.5",
            "--window", "8", "--fast-window", "2",
            "--fault-delay-ms", "80", "--max-faults", "2",
            "--incident-dir", str(inc_dir),
            "--alerts-jsonl", str(alerts),
            "--expect-alert",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        # One policy per tenant; each tenant's single injected breach
        # fires one alert when its fast window fills.
        assert "ALERT p-acme" in out
        assert "ALERT p-beta" in out
        assert "incidents dumped: 2" in out
        # The exemplar resolution prints the offending span tree.
        assert "exemplar for breached bucket" in out
        assert "serve.request" in out
        assert len(alerts.read_text().splitlines()) == 2
        assert len(list(inc_dir.glob("incident-*.jsonl"))) == 2

    def test_expect_alert_fails_without_breaches(self, tmp_path, capsys):
        rc = main([
            "slo", "--requests", "6", "--objective-ms", "60000",
            "--expect-alert",
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "EXPECTED AN ALERT" in captured.err

    def test_rejects_bad_policy_parameters(self):
        with pytest.raises(SystemExit):
            main(["slo", "--requests", "4", "--target", "1.5"])


class TestIncidentsCommand:
    def _dump_some(self, tmp_path):
        rec = FlightRecorder(capacity=4, incident_dir=tmp_path)
        for i in range(3):
            rec.record(tenant="t", wall_s=i * 1e-3, trace_id=i)
        rec.dump("slo:p", trace_id=2)
        rec.dump("timeout", trace_id=1)

    def test_lists_and_shows_incidents(self, tmp_path, capsys):
        self._dump_some(tmp_path)
        assert main(["incidents", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 incidents" in out
        assert "slo:p" in out and "timeout" in out

        assert main(["incidents", "--dir", str(tmp_path),
                     "--show", "2"]) == 0
        out = capsys.readouterr().out
        assert "incident #2: timeout" in out
        assert ">>" in out  # the triggering frame is marked

    def test_empty_dir_and_unknown_id(self, tmp_path, capsys):
        assert main(["incidents", "--dir", str(tmp_path)]) == 0
        assert "no incidents" in capsys.readouterr().out
        self._dump_some(tmp_path)
        with pytest.raises(SystemExit):
            main(["incidents", "--dir", str(tmp_path), "--show", "9"])
