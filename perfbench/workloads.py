"""The three seeded traffic mixes.

A workload is a `Plan`: setup steps (the base sessions, loaded and warmed
before timing starts), one round of steps that every run repeats whole, and
for `certify` an open-loop side stream on a second connection. The seed
picks program names and, in `session_mix`, the order of the small
sessions; it never changes how many requests of each
class a round holds, so every command's median stays inside the same input
class whatever the seed. The setups carry real analysis work (0.5-1.3 s of
loads, lattices and searches) so that `setup_s` is not a process start.
"""

import random
from dataclasses import dataclass, field

import inputs

SETTINGS4 = ["attr", "attr+fk", "tpl", "tpl+fk"]
ISOLATIONS = ["mvrc", "rc"]

# Counterexample bounds. Robust inputs must exhaust the budget.
CE_SMALL = {"domain_size": 2, "max_txns": 3, "max_schedules": 200}
CE_MEDIUM = {"domain_size": 2, "max_txns": 3, "max_schedules": 2000}
CE_CERTIFY = {"domain_size": 2, "max_txns": 3, "max_schedules": 5000}

KIND_OF = {
    "load_sql": "load", "add_program": "load",
    "replace_program": "mutate", "remove_program": "mutate",
    "check": "check", "subsets": "subsets", "counterexample": "counterexample",
}


@dataclass
class Step:
    request: dict
    session: str = ""  # key into Plan.sessions
    programs: list = field(default_factory=list)  # [(name, text)] once the step is done


@dataclass
class SessionInfo:
    """What the benchmark knows about a session apart from the daemon."""
    family: str            # smallbank | tpcc | auction | random | mixed
    settings: str          # e.g. "tpl+fk+rc"
    base: str              # input name, e.g. "tpcc_x3"
    replicas: int = 1      # TPC-C replication factor (tpcc family)
    auction_n: int = 0     # Auction(n) size (auction family)
    schema: str = ""


@dataclass
class Plan:
    workload: str
    setup: list
    round: list
    sessions: dict
    side_session: str = ""       # certify: connection B's session
    side_rate_hz: float = 0.0    # certify: open-loop rate of connection B


def _rename(sql, token):
    """Renames every program with a seeded token, keeping its shape."""
    renamed = []
    for name, text in sql.programs:
        new = "%s_%s" % (name, token)
        renamed.append((new, text.replace("PROGRAM %s(" % name, "PROGRAM %s(" % new, 1)))
    return inputs.Sql(sql.name, sql.schema, renamed)


def _family_of(name):
    for family, prefixes in (("tpcc", ("Delivery", "NewOrder", "OrderStatus", "Payment",
                                        "StockLevel")),
                             ("smallbank", ("Amalgamate", "Balance", "DepositChecking",
                                            "TransactSavings", "WriteCheck")),
                             ("auction", ("FindBids", "PlaceBid"))):
        if name.startswith(prefixes):
            return family
    return "random"


class _Planner:
    def __init__(self, workload, seed):
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.workload = workload
        self.sessions = {}
        self.counter = 0

    def token(self):
        return "%04x" % self.rng.randrange(1 << 16)

    def new_session(self, sql, family, settings, **info):
        self.counter += 1
        name = "%s%d_%s" % (self.workload[:2], self.counter, self.token())
        self.sessions[name] = SessionInfo(family=family, settings=settings, base=sql.name,
                                          schema=sql.schema, **info)
        return name

    def script(self, name, sql, ops):
        """One session's requests. `ops` names the steps in order:
        load, check, subsets, change:<prog>, keep:<prog>,
        remove:<prog>, add:<prog>, ce:<small|medium|certify>, stats, drop."""
        info = self.sessions[name]
        programs = list(sql.programs)
        originals = dict(programs)
        steps = []

        def replace(program, text):
            programs[[n for n, _ in programs].index(program)] = (program, text)
            return text

        for op in ops:
            verb, _, arg = op.partition(":")
            if verb == "load":
                req = {"cmd": "load_sql", "session": name, "sql": sql.text(),
                       "settings": info.settings}
            elif verb == "check":
                req = {"cmd": "check", "session": name}
            elif verb == "subsets":
                req = {"cmd": "subsets", "session": name}
            elif verb == "change":
                text = inputs.edge_changing_variant(dict(programs)[arg], _family_of(arg))
                req = {"cmd": "replace_program", "session": name, "sql": replace(arg, text)}
            elif verb == "keep":
                text = inputs.edge_preserving_variant(dict(programs)[arg])
                req = {"cmd": "replace_program", "session": name, "sql": replace(arg, text)}
            elif verb == "remove":
                programs = [(n, t) for n, t in programs if n != arg]
                req = {"cmd": "remove_program", "session": name, "name": arg}
            elif verb == "add":
                programs.append((arg, originals[arg]))
                req = {"cmd": "add_program", "session": name, "sql": originals[arg]}
            elif verb == "ce":
                bounds = {"small": CE_SMALL, "medium": CE_MEDIUM, "certify": CE_CERTIFY}[arg]
                req = dict({"cmd": "counterexample", "session": name}, **bounds)
            elif verb == "stats":
                req = {"cmd": "stats", "session": name}
            elif verb == "drop":
                req = {"cmd": "drop_session", "session": name}
            else:
                raise ValueError("unknown op " + op)
            steps.append(Step(req, name, list(programs)))
        return steps


# --- session_mix -------------------------------------------------------------



# Which programs a family's mutations hit: (changed, kept, moved) name
# prefixes. The targets sit at fixed positions (last, first, middle match):
# where a program sits steers the order of the core search and of the
# counterexample search, so a seeded choice would change the work.
ROLES = {
    "tpcc": ("Payment", "NewOrder", "StockLevel"),
    "auction": ("PlaceBid", "FindBids", "PlaceBid"),
    "random": ("Rnd", "Rnd", "Rnd"),
}


def _matches(names, prefix):
    return [n for n in names if n.startswith(prefix)]


def _targets(names, roles):
    changed = _matches(names, roles[0])[-1]
    kept = _matches(names, roles[1])[0]
    rest = [n for n in _matches(names, roles[2]) if n not in (changed, kept)]
    return changed, kept, rest[len(rest) // 2]


# The random programs come from one fixed seed (the workload seed only
# renames them): their contents set what a check, a lattice and a search
# on them cost, so a seeded choice would move those commands' medians from
# seed to seed.
RANDOM_SEED = 2


def _session_bundles(b):
    """Four inputs of 10-12 programs with the roles their mutations play:
    (family, sql, extra, (changed, kept, moved) name prefixes). Three are
    TPC-C-heavy and one is twelve random programs, so that the median check
    does real work (above loopback cost)."""
    sb_tpcc = inputs.Sql("smallbank+tpcc", inputs.SMALLBANK_SCHEMA + inputs.TPCC_SCHEMA,
                         inputs.smallbank().programs + inputs.tpcc().programs)
    tpcc12 = inputs.tpcc_k(3)
    tpcc12 = inputs.Sql("tpcc12", tpcc12.schema, tpcc12.programs[:12])
    return [
        ("tpcc", _rename(inputs.tpcc_k(2), b.token()), {"replicas": 2},
         ("Payment", "NewOrder", "StockLevel")),
        ("mixed", _rename(tpcc12, b.token()), {}, ("Payment", "NewOrder", "StockLevel")),
        ("mixed", _rename(sb_tpcc, b.token()), {}, ("Payment", "Balance", "WriteCheck")),
        ("random", _rename(inputs.random_programs(RANDOM_SEED, 12), b.token()), {},
         ROLES["random"]),
    ]


def session_mix(seed):
    b = _Planner("session_mix", seed)
    bundles = _session_bundles(b)
    setup = []
    for settings in ("attr+fk+mvrc", "tpl+mvrc"):
        for family, sql, extra, _ in bundles:
            name = b.new_session(sql, family, settings, **extra)
            setup += b.script(name, sql, ["load", "check", "subsets", "ce:certify"])
    scripts = []
    for family, sql, extra, roles in bundles:
        names = sql.program_names()
        for settings in SETTINGS4:
            for isolation in ISOLATIONS:
                name = b.new_session(sql, family, settings + "+" + isolation, **extra)
                changed, kept, moved = _targets(names, roles)
                # Counterexamples (mvrc only) search the input as loaded.
                # The random programs take a second subsets and a second
                # counterexample: the subsets median then falls among the
                # twelve TPC-C programs' lattices and the counterexample
                # median among SmallBank+TPC-C's searches.
                double = family == "random"
                ops = ["load", "check"]
                if isolation == "mvrc":
                    ops += ["ce:small"] * (2 if double else 1)
                ops += ["subsets", "change:" + changed, "check"]
                if double:
                    ops.append("subsets")
                ops += ["keep:" + kept, "check", "remove:" + moved, "check",
                        "add:" + moved, "check", "stats", "drop"]
                scripts.append(b.script(name, sql, ops))
    b.rng.shuffle(scripts)
    return Plan("session_mix", setup, [s for script in scripts for s in script], b.sessions)


# --- lattice -----------------------------------------------------------------

def lattice(seed):
    b = _Planner("lattice", seed)
    # (family, input, extra, two comparable settings). The exhaustive regime
    # (<= 20 programs) runs on TPC-C x3 and Auction(8), the core-guided one
    # on the rest; every input runs under two settings ordered by
    # strength, so their verdicts are checked for monotonicity.
    cases = [
        ("tpcc", inputs.tpcc_k(3), {"replicas": 3}, ("tpl+rc", "attr+fk+rc")),
        ("auction", inputs.auction_n(8), {"auction_n": 8}, ("tpl+mvrc", "attr+fk+mvrc")),
        ("tpcc", inputs.tpcc_k(6), {"replicas": 6}, ("tpl+mvrc", "tpl+rc")),
        ("tpcc", inputs.tpcc_k(8), {"replicas": 8}, ("attr+fk+mvrc", "attr+fk+rc")),
        ("auction", inputs.auction_n(32), {"auction_n": 32}, ("tpl+mvrc", "attr+fk+rc")),
        ("auction", inputs.auction_n(64), {"auction_n": 64}, ("tpl+rc", "attr+fk+rc")),
        ("random", inputs.random_programs(RANDOM_SEED, 24), {},
         ("attr+fk+mvrc", "attr+fk+rc")),
    ]
    # The base sessions: TPC-C x8 and every case's input under both its
    # settings, each loaded with its lattice computed.
    base = _rename(inputs.tpcc_k(8), b.token())
    name = b.new_session(base, "tpcc", "tpl+mvrc", replicas=8)
    setup = b.script(name, base, ["load", "check", "subsets"])
    for family, base_sql, extra, settings_pair in cases:
        for settings in settings_pair:
            sql = _rename(base_sql, b.token())
            name = b.new_session(sql, family, settings, **extra)
            setup += b.script(name, sql, ["load", "check", "subsets"])
    scripts = []
    for family, base_sql, extra, settings_pair in cases:
        for settings in settings_pair:
            sql = _rename(base_sql, b.token())
            name = b.new_session(sql, family, settings, **extra)
            changed, kept, moved = _targets(sql.program_names(), ROLES[family])
            ops = ["load", "check"]
            if family == "auction" and extra["auction_n"] == 8:
                # Three counterexamples on the input as loaded (an odd count).
                ops += ["ce:medium"] * (2 if settings == "attr+fk+mvrc" else 1)
            ops += ["subsets", "change:" + changed, "subsets", "keep:" + kept, "subsets"]
            if settings == "tpl+rc" and family == "auction":
                # One remove/add pair per round keeps the load and mutate
                # counts odd, so their medians fall inside an input class.
                ops += ["remove:" + moved, "add:" + moved]
            ops += ["check", "drop"]
            scripts.append(b.script(name, sql, ops))
    return Plan("lattice", setup, [s for script in scripts for s in script], b.sessions)


# --- certify -----------------------------------------------------------------

def certify(seed):
    b = _Planner("certify", seed)
    side_sql = _rename(inputs.smallbank(), b.token())
    side = b.new_session(side_sql, "smallbank", "attr+fk+mvrc")
    setup = b.script(side, side_sql, ["load", "check", "check"])
    # (family, input, extra, certifications per round, replicas the
    # mutation may hit). Robust inputs (the auctions) must exhaust the
    # budget; SmallBank and TPC-C must yield a counterexample. Of the nine
    # certifications per round, the seven on auctions exhaust the same
    # budget at near-equal cost, so the median falls among them.
    cases = [
        ("smallbank", _rename(inputs.smallbank(), b.token()), {}, 1, "Balance"),
        ("tpcc", _rename(inputs.tpcc_k(3), b.token()), {"replicas": 3}, 1, "Payment"),
        ("auction", _rename(inputs.auction_n(16), b.token()), {"auction_n": 16}, 2, "PlaceBid"),
        ("auction", _rename(inputs.auction_n(32), b.token()), {"auction_n": 32}, 3, "PlaceBid"),
        ("auction", _rename(inputs.auction_n(64), b.token()), {"auction_n": 64}, 2, "PlaceBid"),
    ]
    # The base sessions: every input loaded, its lattice computed and two
    # certifications run.
    for family, base_sql, extra, _, _ in cases:
        sql = _rename(base_sql, b.token())
        name = b.new_session(sql, family, "attr+fk+mvrc", **extra)
        setup += b.script(name, sql, ["load", "subsets", "ce:certify", "ce:certify"])
    # Connection A prepares each session (load, subsets, edge-preserving
    # replaces), then certifies them back to back. Auction(64) takes seven
    # replace + subsets pairs: that class then holds the middle of both
    # commands' per-round samples, with real work (~0.5 and ~2 ms) in each.
    prepare, certify_steps, drops = [], [], []
    for family, sql, extra, certifications, role in cases:
        name = b.new_session(sql, family, "attr+fk+mvrc", **extra)
        ops = ["load", "subsets"]
        if extra.get("auction_n") == 64:
            for kept in _matches(sql.program_names(), role)[:7]:
                ops += ["keep:" + kept, "subsets"]
        else:
            ops.append("keep:" + _matches(sql.program_names(), role)[0])
        steps = b.script(name, sql, ops + ["ce:certify"] * certifications + ["drop"])
        prepare += steps[:len(ops)]
        certify_steps += steps[len(ops):-1]
        drops.append(steps[-1])
    return Plan("certify", setup, prepare + certify_steps + drops, b.sessions,
                side_session=side, side_rate_hz=50.0)


WORKLOADS = {
    "session_mix": session_mix,
    "lattice": lattice,
    "certify": certify,
}
