"""Command-line interface: payload schemas and the exit-code contract.

Exit codes: 0 success/true, 1 domain error, 2 parse error, 3 negative
verdict, 4 abstention, 5 enumeration cap exceeded.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import quiverlab
from quiverlab import format_quiver_spec, standard_quiver
from quiverlab.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def child_env():
    """The environment for a child interpreter that imports this quiverlab."""
    paths = [os.path.dirname(os.path.dirname(quiverlab.__file__))]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


A2 = ("--type", "A", "--rank", "2")
A3 = ("--type", "A", "--rank", "3")

# the README's command-line examples and their documented exit codes
README_EXAMPLES = [
    (["roots", *A3], 0),
    (["kp", "1,2,1", *A3], 0),
    (["hom", "[2,3],[1,2]", *A3], 0),
    (["ext1", "[1,1]", "[2,2]", *A2], 0),
    (["order", "[1,2]", "[1,1]+[2,2]", *A2], 0),
    (["ext-set", "[1,1]", "[2,2]", *A2], 0),
    (["generic-ext", "[1,1]", "[2,2]", *A2], 0),
    (["grass", "count", "[1,2]+[2,3]", "--beta", "0,1,1", "--field", "2", *A3], 0),
    (["grass", "strata", "[1,2]+[2,3]", "--beta", "0,1,1", *A3], 0),
    (["grass", "components", "[1,2]+[2,3]", "--beta", "0,1,1", *A3], 0),
    (["ext-min", "[1,3]+[2,2]", "--alpha", "1,1,0", *A3], 0),
    (["support-pair", "[1,1]", "[2,2]", *A2], 3),
    (["simplicity", "[1,1]", "[2,2]", *A2], 3),
    (["socle", "[1,1]", "[2,2]", *A2], 0),
    (["degree-report", "[1,1]", "[2,2]", *A2], 0),
    (["rep-quiver", *A2], 0),
    (["epsilon", "[1,2]", "[1,1]", *A2], 0),
]


# ------------------------------------------------------------ basics

def test_roots(capsys):
    rc, data = run_json(capsys, "roots", *A2)
    assert rc == 0
    assert data["word"] == [1, 2, 1]
    assert data["roots"] == [
        {"index": 1, "root": "1,0", "class": "[1,1]"},
        {"index": 2, "root": "1,1", "class": "[1,2]"},
        {"index": 3, "root": "0,1", "class": "[2,2]"},
    ]


def test_kp(capsys):
    rc, data = run_json(capsys, "kp", "1,1", *A2)
    assert rc == 0
    assert data["count"] == 2
    assert set(data["classes"]) == {"[1,2]", "[1,1]+[2,2]"}


def test_hom_single_token_pair(capsys):
    rc, data = run_json(capsys, "hom", "[2,3],[1,2]", *A3)
    assert rc == 0
    assert data == {"x": "[2,3]", "y": "[1,2]", "hom": 1, "method": "closed-form"}


def test_hom_two_token_pair(capsys):
    # shell splitting of `hom [2,3], [1,2]` leaves a dangling comma
    rc, data = run_json(capsys, "hom", "[2,3],", "[1,2]", *A3)
    assert rc == 0
    assert data["hom"] == 1
    rc, data = run_json(capsys, "hom", "[2,3]", ",[1,2]", *A3)
    assert rc == 0
    assert data["hom"] == 1


def test_ext1(capsys):
    rc, data = run_json(capsys, "ext1", "[1,1]", "[2,2]", *A2)
    assert rc == 0 and data["ext1"] == 1


def test_order_true_and_false(capsys):
    rc, data = run_json(capsys, "order", "[1,2]", "[1,1]+[2,2]", *A2)
    assert rc == 0 and data["leq"] is True
    rc, data = run_json(capsys, "order", "[1,1]+[2,2]", "[1,2]", *A2)
    assert rc == 3 and data["leq"] is False


# ------------------------------------------------------------ extensions

def test_ext_set(capsys):
    rc, data = run_json(capsys, "ext-set", "[1,1]", "[2,2]", *A2)
    assert rc == 0
    assert data["classes"] == ["[1,1]+[2,2]", "[1,2]"]
    assert data["method"] == "u-enumeration"
    assert data["fields"] == [2, 3]
    assert data["stable"] is True


def test_ext_set_subrep_method(capsys):
    rc, data = run_json(capsys, "ext-set", "[1,1]", "[2,2]", "--method", "subrep", *A2)
    assert rc == 0 and data["method"] == "subrep-filter"
    assert data["classes"] == ["[1,1]+[2,2]", "[1,2]"]


def test_generic_ext(capsys):
    rc, data = run_json(capsys, "generic-ext", "[1,1]", "[2,2]", *A2)
    assert rc == 0 and data["generic_ext"] == "[1,2]"


def test_three_simples_by_three_over_gf5(capsys):
    # u-space has 5^9 points; the u-route classifies 64 of them, one per
    # subspace of F_5^3
    pair = ("[1,1]+[1,1]+[1,1]", "[2,2]+[2,2]+[2,2]", *A2, "--field", "5")
    rc, data = run_json(capsys, "generic-ext", *pair)
    assert rc == 0 and data["generic_ext"] == "[1,2]+[1,2]+[1,2]"
    rc, data = run_json(capsys, "ext-set", *pair)
    assert rc == 0 and data["stable"] is True
    assert data["classes"] == [
        "[1,1]+[1,1]+[1,1]+[2,2]+[2,2]+[2,2]",
        "[1,1]+[1,1]+[1,2]+[2,2]+[2,2]",
        "[1,1]+[1,2]+[1,2]+[2,2]",
        "[1,2]+[1,2]+[1,2]",
    ]


def test_ext_min_derives_beta(capsys):
    rc, data = run_json(capsys, "ext-min", "[1,3]+[2,2]", "--alpha", "1,1,0", *A3)
    assert rc == 0
    assert data["beta"] == "0,1,1"
    assert data["pairs"] == [{"mu": "[1,2]", "nu": "[2,3]"}]


@pytest.mark.parametrize(
    "argv",
    [
        ("ext-min", "[1,2]", "--alpha", "2,0"),
        ("grass", "components", "[1,2]", "--beta", "0,2"),
    ],
    ids=["ext-min", "grass-components"],
)
def test_ext_min_alpha_too_big_is_a_domain_error(capsys, argv):
    # alpha + beta = dim lambda leaves the other vector negative, which
    # ext_pairs refuses
    rc = main([*argv, *A2])
    assert rc == 1 and "has a negative entry" in capsys.readouterr().err


# ------------------------------------------------------------ grassmannian

def test_grass_count(capsys):
    rc, data = run_json(
        capsys, "grass", "count", "[1,2]+[2,3]", "--beta", "0,1,1", "--field", "2", *A3
    )
    assert rc == 0
    assert data["counts"] == [{"q": 2, "count": 3}]
    assert data["method"] == "enumeration"


def test_grass_count_two_fields(capsys):
    rc, data = run_json(
        capsys,
        "grass", "count", "[1,2]+[2,3]", "--beta", "0,1,1",
        "--field", "2", "--field", "3", *A3,
    )
    assert rc == 0
    assert data["counts"] == [{"q": 2, "count": 3}, {"q": 3, "count": 4}]


def test_grass_strata(capsys):
    rc, data = run_json(
        capsys, "grass", "strata", "[1,2]+[2,3]", "--beta", "0,1,1", "--field", "2", *A3
    )
    assert rc == 0
    assert data == {
        "lambda": "[1,2]+[2,3]",
        "beta": "0,1,1",
        "q": 2,
        "strata": [
            {"mu": "[1,2]", "nu": "[2,3]", "count": 2, "dim": 1},
            {"mu": "[1,1]+[2,2]", "nu": "[2,2]+[3,3]", "count": 1, "dim": 0},
        ],
        "total": 3,
    }


def test_grass_strata_two_fields_nest_reports(capsys):
    rc, data = run_json(
        capsys, "grass", "strata", "[1,2]+[2,3]", "--beta", "0,1,1", *A3
    )
    assert rc == 0
    assert [r["q"] for r in data["reports"]] == [2, 3]


def test_grass_components(capsys):
    rc, data = run_json(
        capsys, "grass", "components", "[1,2]+[2,3]", "--beta", "0,1,1", *A3
    )
    assert rc == 0
    assert data["alpha"] == "1,1,0"
    assert data["components"] == [{"mu": "[1,2]", "nu": "[2,3]"}]


STATE_CLASS = "[1,1]+[1,1]+[1,1]+[1,2]+[1,2]+[1,2]+[2,2]+[2,2]"


def test_grass_components_and_ext_min_ask_ext_set_at_the_default_cap(capsys):
    # walking the Grassmannian of --beta 3,3 needs 40,994,800 states over
    # GF(3), past the default cap; the realized pairs are ext_set queries
    rc, data = run_json(
        capsys, "grass", "components", STATE_CLASS, "--beta", "3,3", "--field", "3", *A2
    )
    assert rc == 0 and data["alpha"] == "3,2"
    assert data["components"] == [
        {"mu": "[1,1]+[1,2]+[1,2]", "nu": "[1,1]+[1,1]+[1,2]+[2,2]+[2,2]"},
        {"mu": "[1,1]+[1,1]+[1,2]+[2,2]", "nu": "[1,1]+[1,2]+[1,2]+[2,2]"},
        {"mu": "[1,1]+[1,1]+[1,1]+[2,2]+[2,2]", "nu": "[1,2]+[1,2]+[1,2]"},
    ]
    rc, data = run_json(capsys, "ext-min", STATE_CLASS, "--alpha", "2,3", "--field", "3", *A2)
    assert rc == 0 and data["beta"] == "4,2"
    assert data["pairs"] == [
        {"mu": "[1,2]+[1,2]+[2,2]", "nu": "[1,1]+[1,1]+[1,1]+[1,2]+[2,2]"},
        {"mu": "[1,1]+[1,2]+[2,2]+[2,2]", "nu": "[1,1]+[1,1]+[1,2]+[1,2]"},
    ]


def test_realized_pair_caps_exit_5_before_any_ext_set(capsys, monkeypatch):
    # alpha has 3 Kostant partitions in both commands, and the 9 queries
    # of grass components classify 55 u over GF(3); each is counted against
    # the cap before any ext_set runs
    import quiverlab.extensions as ext

    def unreachable(*args, **kwargs):
        raise AssertionError("ext_set ran before the cap check")

    monkeypatch.setattr(ext, "ext_set", unreachable)
    grass = ["grass", "components", STATE_CLASS, "--beta", "3,3", "--field", "3", *A2]
    ext_min = ["ext-min", STATE_CLASS, "--alpha", "2,3", "--field", "3", *A2]
    for argv, cap, message in (
        (grass, "2", "Kostant partition enumeration (counting stopped past the cap) needs 3"),
        (ext_min, "2", "Kostant partition enumeration (counting stopped past the cap) needs 3"),
        (grass, "54", "ext_set queries of the realized pairs, one u per orbit representative "
                      "needs 55 states, cap is 54"),
    ):
        assert main([*argv, "--cap", cap]) == 5
        assert message in capsys.readouterr().err


# ------------------------------------------------------------ criteria

def test_support_pair_exit_codes(capsys):
    rc, data = run_json(capsys, "support-pair", "[2,2]", "[1,1]", *A2)
    assert rc == 0 and data["is_support_pair"] is True and data["witness"] is None
    rc, data = run_json(capsys, "support-pair", "[1,1]", "[2,2]", *A2)
    assert rc == 3 and data["is_support_pair"] is False and data["witness"] == "[1,2]"


def test_simplicity_exit_codes(capsys):
    rc, data = run_json(capsys, "simplicity", "[1,1]", "[2,2]", *A2)
    assert rc == 3
    assert data == {
        "mu": "[1,1]",
        "nu": "[2,2]",
        "verdict": "cannot_be_simple",
        "witness": "[1,2]",
        "inequalities": [
            {
                "lambda": "[1,2]",
                "hom_nu_split": 1,
                "hom_nu_lambda": 1,
                "hom_mu_split": 1,
                "hom_mu_lambda": 0,
            }
        ],
    }
    rc, data = run_json(capsys, "simplicity", "[2,2]", "[1,1]", *A2)
    assert rc == 0 and data["verdict"] == "passes_necessary_test"


def test_simplicity_at_weight_eight_and_ten_runs_at_the_default_cap(capsys):
    # a walk of every Grassmannian of the first pair needs 186,085,900
    # states; the targeted ext_set queries fit the default cap
    mu, nu = "[1,2]+[2,3]+[1,3]+[2,2]", "[1,1]+[3,3]+[2,3]+[1,2]"
    rc, data = run_json(capsys, "simplicity", mu, nu, *A3)
    assert rc == 3 and data["verdict"] == "cannot_be_simple"
    assert data["witness"] == "[1,1]+[1,2]+[1,2]+[1,3]+[2,3]+[2,3]+[2,3]"
    rc, data = run_json(capsys, "simplicity", mu + "+[1,1]", nu + "+[2,2]", *A3)
    assert rc == 0 and data["verdict"] == "passes_necessary_test"
    assert data["witness"] is None


def test_degree_report_at_weight_eight_and_ten_runs_at_the_default_cap(capsys):
    # the pairs of the test above: both flags come from the targeted ext_set
    # queries, and are true on the simplicity witness and the split row only
    mu, nu = "[1,2]+[2,3]+[1,3]+[2,2]", "[1,1]+[3,3]+[2,3]+[1,2]"
    split8 = "[1,1]+[1,2]+[1,2]+[1,3]+[2,2]+[2,3]+[2,3]+[3,3]"
    witness = "[1,1]+[1,2]+[1,2]+[1,3]+[2,3]+[2,3]+[2,3]"
    rc, data = run_json(capsys, "degree-report", mu, nu, *A3)
    assert rc == 0 and len(data["rows"]) == 4
    for row in data["rows"]:
        assert row["generic_pair"] == row["ext_ger"] == (row["lambda"] in (witness, split8))
    split10 = "[1,1]+[1,1]+[1,2]+[1,2]+[1,3]+[2,2]+[2,2]+[2,3]+[2,3]+[3,3]"
    rc, data = run_json(capsys, "degree-report", mu + "+[1,1]", nu + "+[2,2]", *A3)
    assert rc == 0 and len(data["rows"]) == 9
    for row in data["rows"]:
        assert row["generic_pair"] == row["ext_ger"] == (row["lambda"] == split10)


def test_socle_predicts(capsys):
    rc, data = run_json(capsys, "socle", "[1,1]", "[2,2]", *A2)
    assert rc == 0
    assert data["predicted"] == "[1,2]" and data["abstained"] is False


def test_socle_abstains(capsys):
    rc, data = run_json(capsys, "socle", "[1,1]+[2,2]", "[2,2]+[3,3]", *A3)
    assert rc == 4
    assert data == {
        "mu": "[1,1]+[2,2]",
        "nu": "[2,2]+[3,3]",
        "generic_product": "[1,2]+[2,3]",
        "predicted": None,
        "abstained": True,
    }


def test_socle_of_zero_classes_predicts_the_zero_class(capsys):
    # the zero class is a prediction, not an abstention: "0", never null
    rc, data = run_json(capsys, "socle", "0", "0", *A2)
    assert rc == 0
    assert data["predicted"] == "0" and data["abstained"] is False
    rc, out = run(capsys, "socle", "0", "0", "--format", "tsv", *A2)
    assert rc == 0
    assert "predicted\t0\n" in out and "abstained\tfalse\n" in out


def test_degree_report(capsys):
    rc, data = run_json(capsys, "degree-report", "[1,1]", "[2,2]", *A2)
    assert rc == 0
    assert data == {
        "mu": "[1,1]",
        "nu": "[2,2]",
        "rows": [
            {
                "lambda": "[1,2]",
                "d": 2,
                "e": 1,
                "bound": 4,
                "generic_pair": True,
                "ext_ger": True,
                "epsilon": None,
            },
            {
                "lambda": "[1,1]+[2,2]",
                "d": 1,
                "e": 0,
                "bound": 1,
                "generic_pair": True,
                "ext_ger": True,
                "epsilon": 0,
            },
        ],
        "fields": [2, 3],
    }


def test_epsilon(capsys):
    rc, data = run_json(capsys, "epsilon", "[1,2]", "[1,1]", *A2)
    assert rc == 0 and data["epsilon"] == -1


def test_epsilon_window_override(capsys):
    rc, data = run_json(
        capsys, "epsilon", "[1,2]", "[1,1]", "--window", "-6", "3", *A2
    )
    assert rc == 0 and data["epsilon"] == -1


def test_epsilon_window_too_small_is_a_domain_error(capsys):
    rc, _ = run(capsys, "epsilon", "[1,1]", "[2,2]", "--window", "0", "1", *A2)
    assert rc == 1


def test_rep_quiver(capsys):
    rc, data = run_json(capsys, "rep-quiver", *A2)
    assert rc == 0
    assert data["window"] == [-6, 3] and data["xi"] == [1, 0]
    rows = {(r["i"], r["p"]): (r["root"], r["m"]) for r in data["vertices"]}
    assert rows[(2, 0)] == ("1,1", 0)
    assert rows[(1, 3)] == ("1,1", 1)


def test_rep_quiver_window_too_wide_is_a_domain_error():
    # in a child process with a timeout, since the unbounded walk hung
    env = child_env()
    argv = ["rep-quiver", "--window", "-100000000", "100000000", *A2]
    proc = subprocess.run(
        [sys.executable, "-m", "quiverlab.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: window [-100000000, 100000000]")


def test_readme_examples_run_without_numpy():
    # a child interpreter in which any import of numpy fails
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "import quiverlab\n"
        "from quiverlab.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "loaded = [m for m, mod in sys.modules.items()\n"
        "          if m.split('.')[0] == 'numpy' and mod is not None]\n"
        "print(json.dumps({'codes': codes, 'numpy': loaded}))\n"
    )
    argvs = [argv for argv, _ in README_EXAMPLES]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in README_EXAMPLES]
    assert result["numpy"] == []


def test_outputs_do_not_depend_on_the_hash_seed():
    # quivers, root tables and partitions hash by identity, that is by
    # address, so set order differs between processes; two interpreters
    # with different hash seeds must print the same bytes
    script = (
        "import contextlib, io, json, sys\n"
        "from quiverlab.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    runs.append([code, out.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    d4_ext_set = ["ext-set", "1,1,0,0", "0,1,1,1", "--type", "D", "--rank", "4"]
    argvs = [argv for argv, _ in README_EXAMPLES] + [d4_ext_set]
    stdouts = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, text=True, timeout=60,
            env=dict(child_env(), PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 0, proc.stderr
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]
    runs = json.loads(stdouts[0])
    assert [code for code, _ in runs] == [code for _, code in README_EXAMPLES] + [0]
    assert json.loads(runs[-1][1])["classes"][-1] == "1,2,1,1"


class _InOrder(frozenset):
    """A frozenset that iterates in the order it was built from."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.order = list(items)
        return self

    def __iter__(self):
        return iter(self.order)


def test_ext_set_output_does_not_depend_on_set_order(capsys, monkeypatch):
    # the same classes iterated in two orders print the same bytes, which
    # two hash seeds cannot show where both processes place objects alike
    import quiverlab.extensions as ext

    real = ext.ext_set
    argv = ["ext-set", "[1,1]+[1,1]+[1,1]", "[2,2]+[2,2]+[2,2]", "--type", "A", "--rank", "2",
            "--field", "5"]
    outs = []
    for flip in (False, True):
        def reordered(*args, flip=flip, **kwargs):
            r = real(*args, **kwargs)
            order = sorted(r.classes, key=lambda lam: lam.parts, reverse=flip)
            return ext.ExtSetResult(r.mu, r.nu, _InOrder(order), r.method, r.fields, r.stable)

        monkeypatch.setattr(ext, "ext_set", reordered)
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(json.loads(outs[0])["classes"]) == 4


# the library modules a fresh interpreter holds after one subcommand:
# every one resolves a quiver and parses classes, then loads what it runs;
# "grass" is keyed per subcommand, since only its components ask ext_set
_COLD = {"cli", "linalg", "quiver"}
_GRASS = _COLD | {"grassmannian", "homs", "reps"}
_EXT = _GRASS | {"extensions", "order"}
_KLR = _EXT | {"klr", "repetition"}
COLD_MODULES = {
    "roots": _COLD,
    "hom": _COLD | {"homs"},
    "ext1": _COLD | {"homs"},
    "kp": _COLD | {"homs", "order"},
    "order": _COLD | {"homs", "order"},
    "epsilon": _COLD | {"homs", "repetition"},
    "rep-quiver": _COLD | {"homs", "repetition"},
    "grass count": _GRASS,
    "grass strata": _GRASS,
    "grass components": _EXT,
    "ext-set": _EXT,
    "generic-ext": _EXT,
    "ext-min": _EXT,
    "support-pair": _KLR,
    "simplicity": _KLR,
    "socle": _KLR,
    "degree-report": _KLR,
}


def test_readme_examples_load_only_the_modules_they_run():
    script = (
        "import contextlib, io, json, sys\n"
        "from quiverlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('quiverlab.')\n"
        "                  or m in ('dataclasses', 'inspect')]))\n"
    )
    loaded, expected = {}, {}
    for argv, _ in README_EXAMPLES:
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        key = " ".join(argv[:2])
        loaded[key] = {m.removeprefix("quiverlab.") for m in json.loads(proc.stdout)}
        expected[key] = COLD_MODULES[key if argv[0] == "grass" else argv[0]]
    # and none loads dataclasses or inspect: the records are quiver._record's
    assert loaded == expected


def test_domain_errors_are_value_errors():
    # main maps ValueError to exit 1, so every library domain error must be one
    for error in (
        quiverlab.PartitionError, quiverlab.QuiverError, quiverlab.RepError,
        quiverlab.RepetitionError,
    ):
        assert issubclass(error, ValueError), error


def test_kp_cap_is_checked_before_the_enumeration():
    # in a child process with a timeout, since listing the partitions of
    # (6, ..., 6) in E8 ran past it
    env = child_env()
    for gamma, message in (
        ("6,6,6,6,6,6,6,6", "error: Kostant partition enumeration (counting stopped"),
        ("1000000000,0,0,0,0,0,0,0", "error: Kostant partition enumeration (|gamma|"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "quiverlab.cli", "kp", gamma,
             "--type", "E", "--rank", "8", "--cap", "100"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert proc.returncode == 5
        assert proc.stderr.startswith(message)


def test_kp_cap_counts_partitions(capsys):
    # 1,2,1 in A3 has 5 partitions of at most 4 parts
    rc, data = run_json(capsys, "kp", "1,2,1", "--cap", "5", *A3)
    assert rc == 0 and data["count"] == 5
    assert main(["kp", "1,2,1", "--cap", "4", *A3]) == 5


def test_roots_and_kp_past_the_recursion_limit(capsys):
    # D40 has 1560 positive roots: one adapted-word letter and one level
    # of the partition search per root
    d40 = ("--type", "D", "--rank", "40")
    rc, data = run_json(capsys, "roots", *d40)
    assert rc == 0 and len(data["word"]) == len(data["roots"]) == 1560
    simple = ",".join(["0"] * 39 + ["1"])
    rc, data = run_json(capsys, "kp", simple, *d40)
    assert rc == 0 and data["count"] == 1 and data["classes"] == [simple]


def test_closed_form_queries_at_rank_50(capsys):
    # A50 has 1275 positive roots; a closed-form query reads one row of
    # pairs per part, not the N x N table of all of them
    a50 = ("--type", "A", "--rank", "50")
    x, y = "[1,20]+[3,7]", "[5,30]"
    assert run_json(capsys, "hom", x, y, *a50) == (
        0, {"x": x, "y": y, "hom": 0, "method": "closed-form"}
    )
    assert run_json(capsys, "ext1", x, y, *a50) == (
        0, {"x": x, "y": y, "ext1": 2, "method": "closed-form"}
    )
    root, split = "[1,30]", "[1,20]+[21,30]"
    assert run_json(capsys, "order", root, split, *a50) == (
        0, {"x": root, "y": split, "leq": True}
    )
    assert run_json(capsys, "order", split, root, *a50) == (
        3, {"x": split, "y": root, "leq": False}
    )


def test_a_root_table_past_the_cap_is_refused_before_it_is_built(capsys, monkeypatch, tmp_path):
    # building A_R's table walks its R(R+1)/2 roots of R entries each: at
    # rank 800 that is 256,320,000 entries, past the default cap, so the
    # refusal comes before the quiver is built, for a command without
    # --cap too; a quiver file is checked once it is parsed
    path = tmp_path / "a800.quiver"
    path.write_text(format_quiver_spec(standard_quiver("A", 800)))
    for source in (("--type", "A", "--rank", "800"), ("--quiver", str(path))):
        start = time.perf_counter()
        assert main(["hom", "[1,1]", "[1,1]", *source]) == 5
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert "root table (positive roots x rank) needs 256320000 states" in err
    # the default cap takes A ranks up to 322 and D ranks up to 256
    assert main(["roots", "--type", "A", "--rank", "323"]) == 5
    assert main(["roots", "--type", "D", "--rank", "257"]) == 5
    capsys.readouterr()
    # a cap below the default bounds the enumeration, not the table
    monkeypatch.setenv("QUIVERLAB_CAP", "1")
    assert run_json(capsys, "hom", "[1,1]", "[1,1]", "--type", "A", "--rank", "100") == (
        0, {"x": "[1,1]", "y": "[1,1]", "hom": 1, "method": "closed-form"}
    )


# ------------------------------------------------------------ quiver sources

def test_quiver_file(capsys, tmp_path):
    path = tmp_path / "chain.quiver"
    path.write_text(format_quiver_spec(standard_quiver("A", 3)))
    rc, data = run_json(capsys, "hom", "[2,3],[1,2]", "--quiver", str(path))
    assert rc == 0 and data["hom"] == 1


# ------------------------------------------------------------ parse errors

@pytest.mark.parametrize(
    "argv",
    [
        ("hom", "[9,9]", "[1,1]", "--type", "A", "--rank", "2"),  # bad class
        ("hom", "[1,1]", "[2,2]", "--type", "A"),  # missing --rank
        ("hom", "[1,1]", "[2,2]"),  # no quiver at all
        # an unsupported field order, on a command that takes --field
        ("ext-set", "[1,1]", "[2,2]", "--type", "A", "--rank", "2", "--field", "4"),
        ("hom", "1,0,0,1", "--type", "A", "--rank", "2"),  # one coord token
        ("kp", "1,1,1", "--type", "A", "--rank", "2"),  # wrong length
        ("grass", "count", "[1,2]", "--beta", "1,0", "--cap", "0", *A2),
        ("no-such-command",),
        # an option the subcommand does not take
        ("simplicity", "[1,1]", "[2,2]", "--method", "subrep", *A2),
        ("support-pair", "[1,1]", "[2,2]", "--method", "subrep", *A2),
        ("hom", "[1,1]", "[2,2]", "--field", "5", *A2),
        ("roots", "--window", "0", "1", *A2),
        ("epsilon", "[1,2]", "[1,1]", "--cap", "3", *A2),
    ],
)
def test_parse_errors_exit_2(capsys, argv):
    assert main(list(argv)) == 2


def test_bad_class_is_reported_before_a_bad_field(capsys):
    # the quiver, then the classes, then --field, then --cap
    argv = ["ext-set", "[9,9]", "[1,1]", "--field", "4", *A2]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad segment [9,9] for rank 2\n"


def test_each_subcommand_takes_only_the_options_it_reads(capsys):
    enumerating = {"--field", "--cap"}
    extra = {
        "roots": set(),
        "kp": {"--cap"},
        "hom": set(),
        "ext1": set(),
        "order": set(),
        "ext-set": enumerating | {"--method"},
        "generic-ext": enumerating | {"--method"},
        "support-pair": enumerating,
        "simplicity": enumerating,
        "socle": enumerating,
        "degree-report": enumerating,
        "ext-min": enumerating | {"--alpha"},
        "grass": enumerating | {"--beta"},
        "epsilon": {"--window"},
        "rep-quiver": {"--window"},
    }
    for command, options in extra.items():
        assert main([command, "--help"]) == 0
        flags = set(re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.M))
        assert flags == {"--quiver", "--type", "--rank", "--format"} | options, command


@pytest.mark.parametrize("rank", ["0", "-3"])
def test_nonpositive_rank_is_a_domain_error(capsys, rank):
    # --rank 0 is given, so it is not a missing --rank (exit 2)
    assert main(["hom", "[1,1]", "[2,2]", "--type", "A", "--rank", rank]) == 1
    assert "needs rank >= 1" in capsys.readouterr().err


def test_coordinate_pairs_need_two_tokens(capsys):
    rc, data = run_json(capsys, "hom", "0,1,1", "1,1,0", *A3)
    assert rc == 0 and data == {
        "x": "[2,3]",
        "y": "[1,2]",
        "hom": 1,
        "method": "closed-form",
    }


# ------------------------------------------------------------ caps

def test_cap_flag_exit_5(capsys):
    # the count enumerates one colour class, 3 states, past the cap of 1
    rc, _ = run(
        capsys, "grass", "count", "[1,2]+[1,2]", "--beta", "1,1,0",
        "--field", "2", "--cap", "1", *A3,
    )
    assert rc == 5


def test_point_count_cap_counts_the_enumerated_colour_class(capsys):
    # the whole scan has 2,558,556 states over GF(5), but the count
    # enumerates the class of vertex 2, whose one subspace is 0
    argv = ["grass", "count", "+".join(["[1,1]"] * 6), "--beta", "3,0,0", "--field", "5"]
    rc, data = run_json(capsys, *argv, "--cap", "1", *A3)
    assert rc == 0 and data["counts"] == [{"q": 5, "count": 2558556}]


def test_all_forced_strata_cap_counts_the_enumerated_colour_class(capsys):
    # every root of six copies of [1,1] is forced, so strata walks none of
    # the 2,558,556 points over GF(5): it counts its one stratum on the
    # class of vertex 2, whose one subspace is 0
    argv = ["grass", "strata", "+".join(["[1,1]"] * 6), "--beta", "3,0,0", "--field", "5"]
    rc, data = run_json(capsys, *argv, "--cap", "1", *A3)
    assert rc == 0 and data["total"] == 2558556
    assert [(s["count"], s["mu"], s["nu"]) for s in data["strata"]] == [
        (2558556, "[1,1]+[1,1]+[1,1]", "[1,1]+[1,1]+[1,1]")
    ]


def test_subrep_cap_counts_the_hom_box_exit_5(capsys):
    # 5 of the 10 candidate middle terms are in the hom box; over GF(3)
    # each but the split class is a 64-state scan
    argv = ["ext-set", "[1,1]+[2,2]+[3,3]", "[1,1]+[2,2]+[3,3]", "--method", "subrep", *A3]
    assert main([*argv, "--cap", "255"]) == 5
    assert "hom box needs 256 states, cap is 255" in capsys.readouterr().err
    rc, data = run_json(capsys, *argv, "--cap", "256")
    assert rc == 0 and len(data["classes"]) == 4


def test_u_route_cap_counts_orbit_representatives(capsys):
    # u-space has 3^16 points over GF(3), past the default cap; the walk
    # classifies 67 u over GF(2) and 212 over GF(3), and the cap counts those
    pair = ("[2,2]+[2,2]+[2,2]+[2,2]", "[3,3]+[3,3]+[3,3]+[3,3]", *A3)
    rc, data = run_json(capsys, "generic-ext", *pair)
    assert rc == 0 and data["generic_ext"] == "[2,3]+[2,3]+[2,3]+[2,3]"
    assert main(["generic-ext", *pair, "--cap", "211"]) == 5
    assert "needs 212 states, cap is 211" in capsys.readouterr().err


def test_u_route_with_ext_zero_classifies_one_u(capsys):
    # Ext^1 = 0, so the walk classifies u = 0 alone, within a cap of 1;
    # the Ext^1 coordinates are read per pair of roots, so no matrix of
    # the whole sum, dim Hom_0 x n_u = 100^2 x 100^2, is row-reduced
    pair = ("+".join(["[1,2]"] * 100), "+".join(["[2,2]"] * 100), "--type", "A", "--rank", "2")
    for cap in ((), ("--cap", "1")):
        rc, data = run_json(capsys, "generic-ext", *pair, *cap)
        assert rc == 0 and data["generic_ext"] == "+".join([pair[0], pair[1]])


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("QUIVERLAB_CAP", "1")
    rc, _ = run(
        capsys, "grass", "count", "[1,2]+[1,2]", "--beta", "1,1,0", "--field", "2", *A3
    )
    assert rc == 5
    # an explicit --cap wins over the environment
    rc, data = run_json(
        capsys, "grass", "count", "[1,2]+[1,2]", "--beta", "1,1,0",
        "--field", "2", "--cap", "100000", *A3,
    )
    assert rc == 0 and data["counts"][0]["count"] == 3


def test_caps_past_sys_maxsize_exit_0(capsys, monkeypatch):
    # a count checked against cap + 1 once stopped islice past sys.maxsize
    for cap in ("99999999999999999999999", str(sys.maxsize)):
        rc, data = run_json(capsys, "kp", "1,2,1", "--cap", cap, *A3)
        assert rc == 0 and data["count"] == 5
    monkeypatch.setenv("QUIVERLAB_CAP", "100000000000000000000")
    rc, data = run_json(capsys, "ext-set", "[1,1]", "[2,2]", "--method", "subrep", *A2)
    assert rc == 0 and data["classes"] == ["[1,1]+[2,2]", "[1,2]"]


def test_cap_env_var_not_an_integer_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("QUIVERLAB_CAP", "abc")
    rc = main(["grass", "count", "[1,2]+[2,3]", "--beta", "0,1,1", *A3])
    assert rc == 2
    assert "QUIVERLAB_CAP" in capsys.readouterr().err


# ------------------------------------------------------------ tsv

def test_tsv_format(capsys):
    rc, out = run(capsys, "hom", "[2,3],[1,2]", "--format", "tsv", *A3)
    assert rc == 0
    lines = out.splitlines()
    assert "x\t[2,3]" in lines and "hom\t1" in lines


def test_tsv_spells_values_as_json(capsys):
    # null/true/false as in the JSON output, strings unquoted, and an
    # empty table still prints its key: marker line
    rc, out = run(capsys, "simplicity", "[2,2]", "[1,1]", "--format", "tsv", *A2)
    assert rc == 0
    lines = out.splitlines()
    assert "witness\tnull" in lines and "verdict\tpasses_necessary_test" in lines
    assert lines[-1] == "inequalities:"
    rc, out = run(capsys, "degree-report", "[1,1]", "[2,2]", "--format", "tsv", *A2)
    assert rc == 0
    lines = out.splitlines()
    assert "\t[1,2]\t2\t1\t4\ttrue\ttrue\tnull" in lines
    assert not {"None", "True", "False"} & set("\t".join(lines).split("\t"))


@pytest.mark.parametrize(
    "argv,vector_line",
    [
        (("kp", "1,2,1", *A3), "gamma\t1,2,1"),
        (("kp", "1,1,1,1", "--type", "D", "--rank", "4"), "gamma\t1,1,1,1"),
        (("ext-set", "[1,1]", "[2,2]", *A2), "fields\t2,3"),
        (("ext-set", "[1,2]", "[2,3]", *A3), "fields\t2,3"),
    ],
)
def test_tsv_string_lists_split_back_into_the_json_list(capsys, argv, vector_line):
    # class strings hold commas, so each class is a cell of its own;
    # integer vectors stay one comma-separated cell
    _, data = run_json(capsys, *argv)
    rc, out = run(capsys, *argv, "--format", "tsv")
    assert rc == 0 and len(data["classes"]) > 1
    lines = out.splitlines()
    [classes] = [line for line in lines if line.startswith("classes\t")]
    assert classes.split("\t")[1:] == data["classes"]
    assert vector_line in lines


def test_tsv_tables(capsys):
    rc, out = run(
        capsys, "grass", "count", "[1,2]+[2,3]", "--beta", "0,1,1",
        "--field", "2", "--format", "tsv", *A3,
    )
    assert rc == 0
    lines = out.splitlines()
    assert "counts:\tq\tcount" in lines
    assert "\t2\t3" in lines


def test_tsv_grass_strata_prints_one_block_per_field(capsys):
    rc, out = run(
        capsys, "grass", "strata", "[1,2]+[2,3]", "--beta", "0,1,1", "--format", "tsv", *A3
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines.count("strata:\tmu\tnu\tcount\tdim") == 2
    assert [line for line in lines if line.startswith("q\t")] == ["q\t2", "q\t3"]
    assert "{" not in out


def test_tsv_grass_strata_entries_sharing_a_sub_class_share_dim(capsys):
    # dim is the dimension of the sub-class locus: both entries have sub
    # [3,3] and print dim 2; their counts q^2 + q and 1 sum to q^2 + q + 1
    rc, out = run(
        capsys, "grass", "strata", "[2,3]+[3,3]+[3,3]", "--beta", "0,0,1",
        "--field", "2", "--field", "3", "--field", "5", "--format", "tsv", *A3,
    )
    assert rc == 0
    assert out == "".join(
        "lambda\t[2,3]+[3,3]+[3,3]\nbeta\t0,0,1\n"
        f"q\t{q}\ntotal\t{q * q + q + 1}\nstrata:\tmu\tnu\tcount\tdim\n"
        f"\t[2,3]+[3,3]\t[3,3]\t{q * q + q}\t2\n\t[2,2]+[3,3]+[3,3]\t[3,3]\t1\t2\n"
        for q in (2, 3, 5)
    )
