"""Fuzzing the command line: every argv ends in a documented exit code.

Argument vectors start from the README examples and have their values
mutated: classes, dimension vectors, quiver types and ranks, fields,
caps, windows, formats and methods, plus dropped and repeated tokens.
Each argv gets the options its command takes, and about one in eight
also gets one it does not take, which must exit 2.  ``main`` runs
in-process, so an uncaught exception fails the test with its traceback.
Ranks stay at most 8 and every command that enumerates gets a ``--cap``
of at most 10^4, so no draw can run for long.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings, strategies as st

from quiverlab.cli import main

DOCUMENTED_EXIT_CODES = range(6)

# README examples without their quiver options, the kinds of value at
# each position (None: kept as is), and the quiver they run on
EXAMPLES = [
    (["roots"], [None], ("A", 3)),
    (["kp", "1,2,1"], [None, "dim"], ("A", 3)),
    (["hom", "[2,3],[1,2]"], [None, "pair"], ("A", 3)),
    (["ext1", "[1,1]", "[2,2]"], [None, "class", "class"], ("A", 2)),
    (["order", "[1,2]", "[1,1]+[2,2]"], [None, "class", "class"], ("A", 2)),
    (["ext-set", "[1,1]", "[2,2]"], [None, "class", "class"], ("A", 2)),
    (["generic-ext", "[1,1]", "[2,2]"], [None, "class", "class"], ("A", 2)),
    (["grass", "count", "[1,2]+[2,3]", "--beta", "0,1,1"],
     [None, "what", "class", None, "dim"], ("A", 3)),
    (["grass", "strata", "[1,2]+[2,3]", "--beta", "0,1,1"],
     [None, "what", "class", None, "dim"], ("A", 3)),
    (["grass", "components", "[1,2]+[2,3]", "--beta", "0,1,1"],
     [None, "what", "class", None, "dim"], ("A", 3)),
    (["ext-min", "[1,3]+[2,2]", "--alpha", "1,1,0"], [None, "class", None, "dim"], ("A", 3)),
    (["support-pair", "[1,1]", "[2,2]"], [None, "class", "class"], ("A", 2)),
    (["simplicity", "[1,1]", "[2,2]"], [None, "class", "class"], ("A", 2)),
    (["socle", "[1,1]", "[2,2]"], [None, "class", "class"], ("A", 2)),
    (["degree-report", "[1,1]", "[2,2]"], [None, "class", "class"], ("A", 2)),
    (["rep-quiver"], [None], ("A", 2)),
    (["epsilon", "[1,2]", "[1,1]"], [None, "class", "class"], ("A", 2)),
]

# the options beyond --quiver/--type/--rank/--format that each command takes
ENUMERATING = ("--field", "--cap")
OPTIONS = {
    "roots": (),
    "kp": ("--cap",),
    "hom": (),
    "ext1": (),
    "order": (),
    "ext-set": (*ENUMERATING, "--method"),
    "generic-ext": (*ENUMERATING, "--method"),
    "grass": ENUMERATING,
    "ext-min": ENUMERATING,
    "support-pair": ENUMERATING,
    "simplicity": ENUMERATING,
    "socle": ENUMERATING,
    "degree-report": ENUMERATING,
    "rep-quiver": ("--window",),
    "epsilon": ("--window",),
}

# mostly near-valid values, some far off
entry = st.sampled_from([0, 0, 1, 1, 1, 2, 3, -1, 10**9])
junk = st.sampled_from(["", "0", "+", ",", "[", "[1,2", "1,,2", "[1,2]+", "x", "-"])
segment = st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map("[%d,%d]".__mod__)
near_segment = st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
    lambda ab: "[%d,%d]" % (min(ab), max(ab))
)


def coords(size):
    return st.lists(entry, min_size=size, max_size=size).map(lambda xs: ",".join(map(str, xs)))


def klass(rank):
    return st.one_of(
        st.lists(near_segment, min_size=1, max_size=3).map("+".join),
        st.lists(segment, min_size=1, max_size=3).map("+".join),
        st.lists(coords(rank), min_size=1, max_size=3).map(" + ".join),
        junk,
    )


def values(kind, rank):
    rank = max(rank, 0)
    size = st.sampled_from([rank, rank, rank, rank - 1, rank + 1]).map(lambda n: max(n, 0))
    if kind == "dim":
        return st.one_of(size.flatmap(coords), junk)
    if kind == "class":
        return klass(rank)
    if kind == "pair":
        return st.one_of(st.tuples(klass(rank), klass(rank)).map(",".join), klass(rank))
    return st.sampled_from(["count", "strata", "components", "other"])


def sometimes(draw, strategy, default, odds=2):
    """A draw from ``strategy`` once in ``odds`` times, else ``default``."""
    hit = draw(st.sampled_from([False] * (odds - 1) + [True]))
    return draw(strategy) if hit else default


@st.composite
def argvs(draw):
    head, kinds, (diagram_type, rank) = draw(st.sampled_from(EXAMPLES))
    diagram_type, rank = sometimes(
        draw,
        st.tuples(st.sampled_from(["A", "A", "D", "E", "B"]), st.integers(-1, 8)),
        (diagram_type, rank),
        3,
    )
    argv = [
        sometimes(draw, values(kind, rank), tok) if kind else tok
        for tok, kind in zip(head, kinds)
    ]
    bad = st.sampled_from(["x", "", "-1", "4", "0"])
    argv += ["--type", diagram_type, "--rank", sometimes(draw, bad, str(rank), 8)]
    takes = OPTIONS[head[0]]
    if "--cap" in takes:
        argv += ["--cap", sometimes(draw, bad, str(draw(st.integers(1, 10**4))), 8)]
    bounds = st.sampled_from([-(10**9), -7, -1, 0, 2, 5, 10**9])
    optional = {
        "--field": st.sampled_from(["2", "3", "5"]),
        "--format": st.sampled_from(["json", "tsv"]),
        "--method": st.sampled_from(["u", "subrep"]),
    }
    for flag in ("--field", "--field", "--format", "--method"):
        if (flag in takes or flag == "--format") and draw(st.booleans()):
            argv += [flag, sometimes(draw, bad, draw(optional[flag]), 8)]
    if sometimes(draw, st.just(True), False, 8):
        argv += ["--quiver", draw(st.sampled_from([".", "no-such-dir/a.quiver"]))]
    if "--window" in takes and sometimes(draw, st.just(True), False, 4):
        argv += ["--window", str(draw(bounds)), str(draw(bounds))]
    if sometimes(draw, st.just(True), False, 8):
        foreign = [f for f in ("--field", "--cap", "--method", "--window") if f not in takes]
        flag = draw(st.sampled_from(foreign))
        if flag == "--window":
            argv += [flag, str(draw(bounds)), str(draw(bounds))]
        else:
            argv += [flag, draw(optional.get(flag, st.integers(1, 10**4).map(str)))]
    # now and then drop one token (never the command's cap) or repeat one
    edit = draw(st.sampled_from(["keep"] * 6 + ["drop", "repeat"]))
    where = draw(st.integers(0, len(argv) - 1))
    cap_at = argv.index("--cap") if "--cap" in takes else -2
    if edit == "drop" and where not in (cap_at, cap_at + 1):
        del argv[where]
    elif edit == "repeat":
        argv.insert(where, argv[where])
    return argv


@given(argvs())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in DOCUMENTED_EXIT_CODES, (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
