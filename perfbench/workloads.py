"""Workload plans: one session's seeded list of JSON-ready ops.

Each workload runs a fixed op mix per session, stratified by the sizes that
set an op's cost (degree, term count, matroid shape), and the seed picks
the concrete inputs and their order.  Stratifying keeps the cost of a
session nearly the same from seed to seed, so runs on different seeds can
be compared.  Sizes are kept where one cold session takes about three
seconds on a 2-CPU machine.
"""

import gen

# Degree 9 dominates: per session and op kind, ops at degree 6, 7, 8, 9.
DEGREE_MIX = {6: 3, 7: 6, 8: 9, 9: 18}
NPROD_MIX = {7: 9, 8: 12, 9: 15}
# (vertices, edges) of the graphic matroids, (r, n) of the uniform ones
# (r or n - r, by the seed) and (weight, loops) of the recovered classes.
GRAPHIC_SHAPES = ((5, 8), (6, 8), (5, 9), (6, 9), (4, 10), (5, 10), (6, 10), (7, 10))
UNIFORM_SHAPES = ((3, 8), (4, 9), (5, 10), (4, 11), (6, 12))
RECOVER_SHAPES = ((6, 0), (7, 0), (8, 0), (9, 0), (6, 1), (7, 1), (8, 1), (7, 2))

# Malformed CLI requests.  KNOWN_DEFECTS are accepted or crash today
# instead of returning the documented error; they count as failed ops.
KNOWN_DEFECTS = ("term-without-comp", "terms-not-a-list", "num-float", "comp-float", "num-bool")
HANDLED_MALFORMED = (
    "unknown-basis",
    "zero-part",
    "bad-json",
    "zero-den",
    "not-rank-two",
    "non-matroid",
    "split-position",
    "geom-missing-J",
)
CLI_MIX = {
    "expand": 6,
    "convert": 6,
    "mul": 6,
    "matroid-f": 5,
    "recover": 4,
    "rank2-split": 4,
    "geom-decompose": 4,
    "verify": 1,
}
# Degrees of the expand and convert requests.  A convert at degree 7 or 8
# builds that degree's whole table and, with verify, is one of the few slow
# requests; keeping those to 3 of 40 keeps op_p90_ms among the ordinary
# requests, off the gap between the slow and the fast ones.
CLI_DEGREES = {"expand": (4, 5, 6, 7, 7, 8), "convert": (4, 5, 6, 6, 7, 8)}
CLI_MALFORMED = {"known": 2, "handled": 2}


# ---------------------------------------------------------------------------
# plans


def plan_qsym_degree(rng):
    ops = []
    for kind in ("expand", "to-N", "from-N", "mprod", "nprod"):
        for degree, count in (NPROD_MIX if kind == "nprod" else DEGREE_MIX).items():
            for index in range(count):
                ops.append(_qsym_op(rng, kind, degree, terms=1 + index % 4))
    rng.shuffle(ops)
    return ops


def _split_degree(rng, degree):
    left = rng.randint(2, degree - 2)
    return left, degree - left


def _qsym_op(rng, kind, degree, terms):
    """One op; `terms` (1 to 4) sets the term count of sparse inputs, and a
    product takes factors of (terms + 1) // 2 terms each."""
    if kind == "expand":
        return {"kind": kind, "degree": degree, "comp": gen.composition(rng, degree)}
    if kind == "to-N":
        element = gen.sparse_element(rng, rng.choice("ML"), degree, terms)
        return {"kind": kind, "degree": degree, "element": element}
    if kind == "from-N":
        element = gen.sparse_element(rng, "N", degree, terms)
        return {"kind": kind, "degree": degree, "element": element}
    a, b = _split_degree(rng, degree)
    factor_terms = (terms + 1) // 2
    if kind == "mprod":
        left = gen.sparse_element(rng, rng.choice("ML"), a, factor_terms)
        right = gen.sparse_element(rng, rng.choice("ML"), b, factor_terms)
        return {"kind": kind, "degree": degree, "left": left, "right": right}
    if terms % 2:
        pair = [gen.composition(rng, a), gen.composition(rng, b)]
        return {"kind": kind, "degree": degree, "pair": pair}
    left = gen.sparse_element(rng, "N", a, factor_terms)
    right = gen.sparse_element(rng, "N", b, factor_terms)
    return {"kind": kind, "degree": degree, "left": left, "right": right}


def plan_matroid_rank2(rng):
    ops = []
    for vertices, n in GRAPHIC_SHAPES:
        ops.append({"kind": "F", "family": "graphic", **gen.graphic_matroid(rng, vertices, n)})
    for r, n in UNIFORM_SHAPES:
        r = rng.choice((r, n - r))
        ops.append({"kind": "F", "family": "uniform", **gen.uniform_matroid(r, n)})
    for _ in range(5):
        lam = gen.partition(rng, rng.randint(5, 8))
        family = gen.rank2_family(lam, loops=rng.randint(0, 2), coloops=rng.randint(0, 1))
        ops.append({"kind": "F", "family": "rank2", **family})
    for m, loops in RECOVER_SHAPES:
        ops.append({"kind": "recover", "lambda": gen.partition(rng, m), "loops": loops})
    for _ in range(6):
        comp = gen.partition(rng, rng.randint(4, 10))
        rng.shuffle(comp)
        ops.append({"kind": "split", "comp": comp, "s": rng.randint(1, len(comp) - 1)})
    for _ in range(5):
        ops.append({"kind": "geom", "lambda": gen.partition(rng, rng.randint(6, 12), min_parts=4)})
    for n in (8, 10, 12):
        ops.append({"kind": "hilbert", "n": n})
    rng.shuffle(ops)
    return ops


def plan_verify_full(rng):
    """The ten check families at their full bounds, in CHECKS order."""
    import inspect

    from nqsym import verify

    seed = rng.randrange(2**31)
    ops = []
    for check_id, func in verify.CHECKS:
        kwargs = dict(verify.FULL_BOUNDS[check_id])
        if "seed" in inspect.signature(func).parameters:
            kwargs["seed"] = seed
        ops.append({"kind": check_id, "kwargs": kwargs})
    return ops


def plan_cli_oneshot(rng):
    ops = []
    for command, count in CLI_MIX.items():
        for index in range(count):
            ops.append(_cli_request(rng, command, index))
    for name in rng.sample(KNOWN_DEFECTS, CLI_MALFORMED["known"]):
        ops.append(_malformed_request(name, known=True))
    for name in rng.sample(HANDLED_MALFORMED, CLI_MALFORMED["handled"]):
        ops.append(_malformed_request(name, known=False))
    rng.shuffle(ops)
    return ops


def _request(command, argv, stdin=None, **expect):
    return {"kind": command, "argv": [command] + argv, "stdin": stdin, "expect": expect}


def _cli_request(rng, command, index):
    if command == "expand":
        comp = gen.composition(rng, CLI_DEGREES[command][index])
        return _request(command, ["--comp", ",".join(map(str, comp))], comp=comp)
    if command == "convert":
        degree = CLI_DEGREES[command][index]
        element = gen.sparse_element(rng, rng.choice("ML"), degree, rng.randint(1, 3))
        return _request(command, ["--to", "N"], gen.dumps(element), element=element)
    if command == "mul":
        a = rng.randint(2, 5)
        factors = [
            gen.sparse_element(rng, basis, degree, rng.randint(1, 2))
            for basis, degree in ((rng.choice("MLN"), a), (rng.choice("MLN"), rng.randint(2, 8 - a)))
        ]
        return _request(command, [], gen.dumps(factors), factors=factors)
    if command == "matroid-f":
        if rng.random() < 0.5:
            matroid = gen.graphic_matroid(rng, rng.randint(4, 5), rng.randint(6, 8))
        else:
            lam = gen.partition(rng, rng.randint(4, 7))
            matroid = gen.rank2_family(lam, loops=rng.randint(0, 1))
        payload = {"n": matroid["n"], "bases": matroid["bases"]}
        return _request(command, [], gen.dumps(payload), matroid=matroid)
    if command == "recover":
        loops = rng.randint(0, 1)
        lam = gen.partition(rng, rng.randint(4, 8 - loops))
        # The stdin payload is computed from lam before the timed section.
        return _request(command, [], None, **{"lambda": lam, "loops": loops})
    if command == "rank2-split":
        comp = gen.partition(rng, rng.randint(4, 9))
        rng.shuffle(comp)
        s = rng.randint(1, len(comp) - 1)
        argv = ["--lambda", ",".join(map(str, comp)), "--s", str(s)]
        return _request(command, argv, comp=comp, s=s)
    if command == "geom-decompose":
        lam = gen.partition(rng, rng.randint(6, 10), min_parts=4)
        # J (the full split into three-part classes) is computed before timing.
        return _request(command, [], None, **{"lambda": lam})
    return _request(command, ["--max-n", "5", "--seed", str(rng.randrange(1000))])


def _malformed_request(name, known):
    def element(term):
        return gen.dumps({"basis": "M", "terms": [term]})

    stdin_by_name = {
        "term-without-comp": ("convert", ["--to", "N"], element({"num": 1, "den": 1})),
        "terms-not-a-list": ("convert", ["--to", "L"], gen.dumps({"basis": "M", "terms": "abc"})),
        "num-float": ("convert", ["--to", "N"], element({"comp": [2, 1], "num": 1.5, "den": 1})),
        "comp-float": ("convert", ["--to", "N"], element({"comp": [2.7], "num": 1, "den": 1})),
        "num-bool": ("mul", [], gen.dumps([{"basis": "M", "terms": [{"comp": [1], "num": True, "den": 1}]}] * 2)),
        "unknown-basis": ("convert", ["--to", "N"], gen.dumps({"basis": "X", "terms": []})),
        "zero-part": ("convert", ["--to", "M"], element({"comp": [1, 0], "num": 1, "den": 1})),
        "bad-json": ("mul", [], "[{\"basis\": \"M\","),
        "zero-den": ("convert", ["--to", "N"], element({"comp": [3], "num": 1, "den": 0})),
        "not-rank-two": ("recover", [], element({"comp": [1], "num": 1, "den": 1})),
        "non-matroid": ("matroid-f", [], gen.dumps({"n": 4, "bases": [[1, 2], [3, 4]]})),
        "split-position": ("rank2-split", ["--lambda", "2,2,1", "--s", "3"], None),
        "geom-missing-J": ("geom-decompose", [], gen.dumps({"lambda": [2, 1, 1, 1]})),
    }
    command, argv, stdin = stdin_by_name[name]
    req = _request(command, argv, stdin)
    req["malformed"] = name
    req["known_defect"] = known
    return req


PLANS = {
    "qsym-degree": plan_qsym_degree,
    "matroid-rank2": plan_matroid_rank2,
    "cli-oneshot": plan_cli_oneshot,
    "verify-full": plan_verify_full,
}
