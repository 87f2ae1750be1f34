"""Output checks, run after the timed window. Each returns a list of failure
strings (empty = passed). The expected facts come from the paper (Figures
6-7, section 7.3), from the construction of the inputs (the k^2 law of
replicated TPC-C) or from the daemon answering a *different* question on a
*different* session (Proposition 5.2, cores, fresh reloads, settings
monotonicity, soundness of certification) — never from the answer under
test itself.
"""

import inputs

# The paper's Figures 6 (Algorithm 2, type-II) and 7 (the type-I baseline):
# maximal robust subsets per benchmark and setting, by abbreviation.
_NO_ATTR_FK = ("tpl", "attr", "tpl+fk")
FIGURES = {
    "type2": {
        "smallbank": {s: [{"Bal", "DC"}, {"Bal", "TS"}, {"Am", "DC", "TS"}]
                      for s in ("tpl", "attr", "tpl+fk", "attr+fk")},
        "tpcc": dict({s: [{"NO"}, {"OS", "SL"}] for s in _NO_ATTR_FK},
                     **{"attr+fk": [{"NO", "Pay"}, {"Pay", "OS", "SL"}]}),
        "auction": {"tpl": [{"FB"}], "attr": [{"FB"}],
                    "tpl+fk": [{"FB", "PB"}], "attr+fk": [{"FB", "PB"}]},
    },
    "type1": {
        "smallbank": {s: [{"Bal"}, {"Am", "DC", "TS"}]
                      for s in ("tpl", "attr", "tpl+fk", "attr+fk")},
        "tpcc": dict({s: [{"NO"}, {"OS", "SL"}] for s in _NO_ATTR_FK},
                     **{"attr+fk": [{"NO", "Pay"}, {"Pay", "SL"}, {"OS", "SL"}]}),
        "auction": {"tpl": [{"FB"}], "attr": [{"FB"}],
                    "tpl+fk": [{"FB"}, {"PB"}], "attr+fk": [{"FB"}, {"PB"}]},
    },
}

CHECK_FIELDS = ("robust", "num_programs", "num_unfolded", "num_edges", "num_counterflow_edges")
VOLATILE = ("elapsed_us",)


class Daemon:
    """Asks the daemon questions on throwaway sessions."""

    def __init__(self, call):
        self.call = call
        self.counter = 0

    def ask(self, settings, schema, programs, requests):
        """Loads schema + programs into a fresh session, sends `requests`
        (dicts without "session"), drops it; returns their responses."""
        self.counter += 1
        name = "verify%d" % self.counter
        sql = schema + "\n" + "\n".join(text for _, text in programs)
        load, _ = self.call({"cmd": "load_sql", "session": name, "sql": sql,
                             "settings": settings})
        if not load.get("ok"):
            raise RuntimeError("verification load failed: %s" % load.get("error"))
        out = [self.call(dict(r, session=name))[0] for r in requests]
        self.call({"cmd": "drop_session", "session": name})
        return out

    def verdict(self, settings, schema, programs):
        return self.ask(settings, schema, programs, [{"cmd": "check"}])[0]


def _names(groups):
    return sorted(sorted(g) for g in groups)


def _strip(response):
    return {k: v for k, v in response.items() if k not in VOLATILE}


def _order(settings):
    parts = settings.split("+")
    return ("attr" in parts, "fk" in parts, "rc" in parts)


# --- individual checks ------------------------------------------------------

def check_rounds_repeat(rounds):
    """Every round answers exactly like the first (the inputs are the same)."""
    failures = []
    first = [_strip(r) for r in rounds[0]]
    for index, responses in enumerate(rounds[1:], start=2):
        for position, (a, b) in enumerate(zip(first, responses)):
            if a != _strip(b):
                failures.append("round %d request %d answered %s, round 1 %s"
                                % (index, position, _strip(b), a))
                break
    return failures


def check_figures(daemon):
    """Maximal robust subsets of SmallBank / TPC-C / Auction under all four
    settings, type-II and type-I, equal the paper's Figures 6 and 7."""
    failures = []
    for bench, sql in (("smallbank", inputs.smallbank()), ("tpcc", inputs.tpcc()),
                       ("auction", inputs.auction())):
        for settings in ("tpl", "attr", "tpl+fk", "attr+fk"):
            got = daemon.ask(settings + "+mvrc", sql.schema, sql.programs,
                             [{"cmd": "subsets", "method": "type2"},
                              {"cmd": "subsets", "method": "type1"}])
            for method, response in zip(("type2", "type1"), got):
                maximal = [{inputs.ABBREVIATIONS[n] for n in group}
                           for group in response.get("maximal", [])]
                want = FIGURES[method][bench][settings]
                if _names(maximal) != _names(want):
                    failures.append("%s %s %s: maximal %s, paper %s"
                                    % (bench, settings, method, _names(maximal), _names(want)))
    return failures


def check_maximal_sets(daemon, info, programs, response, limit=4):
    """Proposition 5.2: each reported maximal set is robust as its own
    session, and adding any one outside program makes it non-robust."""
    failures = []
    by_name = dict(programs)
    for group in response["maximal"][:2]:
        members = [(n, by_name[n]) for n, _ in programs if n in group]
        if not daemon.verdict(info.settings, info.schema, members)["robust"]:
            failures.append("maximal set %s is not robust on its own" % sorted(group))
        outside = [(n, t) for n, t in programs if n not in group][:limit]
        for extra in outside:
            grown = [(n, t) for n, t in programs if n in group or n == extra[0]]
            if daemon.verdict(info.settings, info.schema, grown)["robust"]:
                failures.append("maximal set %s stays robust with %s added"
                                % (sorted(group), extra[0]))
    return failures


def check_cores(daemon, info, programs, response, limit=4):
    """Each sampled core is non-robust, and removing any one member makes
    it robust (cores are the minimal non-robust sets)."""
    failures = []
    for core in response.get("cores", [])[:2]:
        members = [(n, t) for n, t in programs if n in core]
        if len(members) != len(core):
            failures.append("core %s names unknown programs" % sorted(core))
            continue
        if daemon.verdict(info.settings, info.schema, members)["robust"]:
            failures.append("core %s is robust" % sorted(core))
        if len(members) == 1:
            continue
        for dropped, _ in members[:limit]:
            rest = [(n, t) for n, t in members if n != dropped]
            if not daemon.verdict(info.settings, info.schema, rest)["robust"]:
                failures.append("core %s minus %s is still non-robust" % (sorted(core), dropped))
    return failures


def check_monotone(first_checks):
    """Robustness is monotone in the settings on the same input: tpl => attr,
    no FK => FK, mvrc => rc. `first_checks`: [(base, settings, response)]."""
    failures = []
    for base_a, settings_a, a in first_checks:
        for base_b, settings_b, b in first_checks:
            if base_a != base_b or settings_a == settings_b:
                continue
            weaker = all(x <= y for x, y in zip(_order(settings_a), _order(settings_b)))
            if weaker and a["robust"] and not b["robust"]:
                failures.append("%s robust under %s but not under %s"
                                % (base_a, settings_a, settings_b))
    return failures


def check_replicated_tpcc(daemon, replicated):
    """TPC-C x k has k^2 times TPC-C's edges and counterflow edges and k
    times its unfolded programs (Algorithm 1 is pairwise).
    `replicated`: [(k, settings, check response)]."""
    failures = []
    base = {}
    sql = inputs.tpcc()
    for k, settings, response in replicated:
        if settings not in base:
            base[settings] = daemon.verdict(settings, sql.schema, sql.programs)
        one = base[settings]
        want = (k * k * one["num_edges"], k * k * one["num_counterflow_edges"],
                k * one["num_unfolded"], 5 * k)
        got = (response["num_edges"], response["num_counterflow_edges"],
               response["num_unfolded"], response["num_programs"])
        if got != want:
            failures.append("TPC-C x%d under %s: (edges, counterflow, unfolded, programs) %s, "
                            "expected %s" % (k, settings, got, want))
    return failures


def check_auction(auctions):
    """Auction(n) under attr+fk is robust (section 7.3); under attr+fk+mvrc
    it has 3n unfolded programs and 8n + 9n^2 edges, n of them counterflow
    (Table 2). `auctions`: [(n, settings, check response)]."""
    failures = []
    for n, settings, response in auctions:
        if not settings.startswith("attr+fk"):
            continue
        if not response["robust"]:
            failures.append("Auction(%d) not robust under %s" % (n, settings))
        if settings == "attr+fk+mvrc":
            got = (response["num_unfolded"], response["num_edges"],
                   response["num_counterflow_edges"])
            if got != (3 * n, 8 * n + 9 * n * n, n):
                failures.append("Auction(%d): (unfolded, edges, counterflow) %s" % (n, got))
    return failures


def check_fresh_reload(daemon, info, step, last_response):
    """After a mutation sequence, a fresh session loaded with the final SQL
    answers the session's last analysis request identically."""
    request = {k: v for k, v in step.request.items() if k != "session"}
    fresh = daemon.ask(info.settings, info.schema, step.programs, [request])[0]
    if request["cmd"] == "check":
        keys = CHECK_FIELDS
    elif request["cmd"] == "subsets":
        keys = ("search", "maximal", "num_cores", "cores")
    else:
        keys = ("found", "schedules_checked", "bindings_checked", "budget_exhausted")
    got = {k: last_response.get(k) for k in keys}
    want = {k: fresh.get(k) for k in keys}
    if got != want:
        return ["%s after mutations: %s, fresh reload %s" % (request["cmd"], got, want)]
    return []


def check_certification(ce_request, ce_response, robust, expect_found=None):
    """Soundness: no counterexample on an input the static check calls
    robust; schedules_checked <= budget + 1; robust inputs exhaust the
    budget; known non-robust benchmarks yield one."""
    failures = []
    budget = ce_request["max_schedules"]
    if ce_response["schedules_checked"] > budget + 1:
        failures.append("schedules_checked %d over budget %d"
                        % (ce_response["schedules_checked"], budget))
    if robust and ce_response["found"]:
        failures.append("counterexample found on an input checked robust")
    if robust and not ce_response["budget_exhausted"]:
        failures.append("robust input did not exhaust the search budget")
    if expect_found is not None and ce_response["found"] != expect_found:
        failures.append("counterexample found=%s, expected %s"
                        % (ce_response["found"], expect_found))
    return failures


# --- the whole set ----------------------------------------------------------

def _full_set_robust(step, response):
    """Whole-set verdict from a check or a subsets answer."""
    if step.request["cmd"] == "check":
        return response["robust"]
    return any(len(group) == len(step.programs) for group in response["maximal"])


def run_all(plan, rec, call):
    """Every check on the first round's answers (later rounds must repeat
    them exactly)."""
    daemon = Daemon(call)
    failures = []
    if not rec.rounds:
        return ["no round completed"]
    failures += check_rounds_repeat(rec.rounds)
    if rec.side and any(_strip(r) != _strip(rec.side[0]) for r in rec.side):
        failures.append("side-stream check answers differ")
    first_checks, replicated, auctions = [], [], []
    seen_first, verified_bases = set(), set()
    last_analysis, verdict_now, mutated = {}, {}, set()
    for step, response in zip(plan.round, rec.rounds[0]):
        if not response.get("ok"):
            continue
        session, cmd = step.session, step.request["cmd"]
        info = plan.sessions[session]
        if cmd in ("replace_program", "remove_program", "add_program"):
            mutated.add(session)
        if cmd in ("load_sql", "add_program", "replace_program", "remove_program"):
            verdict_now.pop(session, None)
        if cmd in ("check", "subsets", "counterexample"):
            last_analysis[session] = (step, response)
        if cmd in ("check", "subsets") and "method" not in step.request:
            verdict_now[session] = _full_set_robust(step, response)
        if cmd == "check" and session not in seen_first and "method" not in step.request:
            seen_first.add(session)
            first_checks.append((info.base, info.settings, response))
            if info.family == "tpcc" and info.replicas > 1:
                replicated.append((info.replicas, info.settings, response))
            if info.family == "auction":
                auctions.append((info.auction_n, info.settings, response))
        if cmd == "subsets" and info.base not in verified_bases:
            verified_bases.add(info.base)
            failures += check_maximal_sets(daemon, info, step.programs, response)
            failures += check_cores(daemon, info, step.programs, response)
        if cmd == "counterexample":
            robust = verdict_now.get(session)
            if robust is None:
                robust = daemon.verdict(info.settings, info.schema, step.programs)["robust"]
                verdict_now[session] = robust
            expect = None
            if plan.workload == "certify":
                expect = info.family in ("smallbank", "tpcc")
            failures += check_certification(step.request, response, robust, expect)
    failures += check_monotone(first_checks)
    failures += check_replicated_tpcc(daemon, replicated)
    failures += check_auction(auctions)
    for session in mutated:
        step, response = last_analysis[session]
        failures += check_fresh_reload(daemon, plan.sessions[session], step, response)
    if plan.workload in ("session_mix", "lattice"):
        failures += check_figures(daemon)
    return failures


def compare_trace_totals(plan, result, totals):
    """The in-process replay's independently computed totals (from-scratch
    summary graph + detector + search) against the daemon's answers."""
    failures = []
    daemon_answers = list(result["setup_responses"]) + list(result["rec"].rounds[0])
    steps = list(plan.setup) + list(plan.round)
    replayed = [t for t in totals if not t.get("side")]
    if len(replayed) != len(steps):
        return ["replay answered %d requests, daemon %d" % (len(replayed), len(steps))]
    first_subsets = set()
    for step, answer, total in zip(steps, daemon_answers, replayed):
        cmd = step.request["cmd"]
        if _strip(total.get("protocol", {})) != _strip(answer):
            failures.append("in-process protocol answer differs for %s: %s vs %s"
                            % (cmd, _strip(total.get("protocol", {})), _strip(answer)))
        if cmd == "check":
            for key in CHECK_FIELDS:
                if total[key] != answer[key]:
                    failures.append("check %s: replay %s, daemon %s"
                                    % (key, total[key], answer[key]))
        elif cmd == "subsets":
            if _names(total["maximal"]) != _names(answer["maximal"]):
                failures.append("subsets maximal sets differ from the replay")
            if total["search"] != answer["search"]:
                failures.append("subsets regime differs from the replay")
            if answer["search"] == "core_guided":
                if _names(total["cores"]) != _names(answer["cores"]):
                    failures.append("subsets cores differ from the replay")
                cold = step.session not in first_subsets
                queries, replay_queries = answer["detector_queries"], total["detector_queries"]
                if (cold and queries != replay_queries) or queries > replay_queries:
                    failures.append("detector_queries %d, replay %d (%s)"
                                    % (queries, replay_queries, "cold" if cold else "warm"))
            first_subsets.add(step.session)
        elif cmd == "counterexample":
            for key in ("found", "schedules_checked", "bindings_checked"):
                if total[key] != answer[key]:
                    failures.append("counterexample %s: replay %s, daemon %s"
                                    % (key, total[key], answer[key]))
    return failures
