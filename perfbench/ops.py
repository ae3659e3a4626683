"""Op runners, the only code timed, and the output checks run after them.

Runners reach nqsym through module attributes, so the traced mode's
wrappers see every call.  Each check confirms an output by an identity that
does not go back through the timed path: evaluation at integer points for
products and M/L expansions, counts of words and bases, exact round trips
in the other direction, and the closed rank-two formulas.
"""

import json
import random
import subprocess
from math import comb, factorial, prod

from nqsym import matroids, qsym, verify
from nqsym.compositions import drop_zero_parts
from nqsym.elements import QSymElement

import gen

# ---------------------------------------------------------------------------
# runners


def _element(data):
    return QSymElement.from_json(data)


def run_expand(op):
    element = qsym.n_basis_element(tuple(op["comp"]))
    return {"L": element.to_json(), "M": qsym.convert(element, "M").to_json()}


def run_to_n(op):
    return qsym.convert(_element(op["element"]), "N").to_json()


def run_from_n(op):
    return qsym.convert(_element(op["element"]), "M").to_json()


def run_nprod(op):
    if "pair" in op:
        left, right = op["pair"]
        return qsym.mul_nbasis(tuple(left), tuple(right)).to_json()
    return qsym.nbasis_product(_element(op["left"]), _element(op["right"])).to_json()


def run_mprod(op):
    return qsym.mul(_element(op["left"]), _element(op["right"])).to_json()


def run_f(op):
    return matroids.qsym_of_matroid(matroids.Matroid(op["n"], op["bases"])).to_json()


def run_recover(op):
    element = matroids.rank2_qsym(tuple(op["lambda"]))
    if op["loops"]:
        element = qsym.nbasis_product(element, QSymElement.single("N", (op["loops"],)))
    return matroids.recover_rank2(element).to_json()


def run_split(op):
    return matroids.split(tuple(op["comp"]), op["s"]).to_json()


def run_geom(op):
    lam = tuple(op["lambda"])
    members = matroids.full_split_to_length3(lam)
    decomposition = matroids.geom_decompose(lam, members)
    return {"members": [list(m) for m in members], "decomposition": decomposition.to_json()}


def run_hilbert(op):
    return matroids.hilbert_basis_check(op["n"])


def run_verify_check(op):
    # Looked up by name so that the traced mode's wrapper is the one called.
    func = getattr(verify, dict(verify.CHECKS)[op["kind"]].__name__)
    return func(**op["kwargs"]).to_json()


def run_cli(op, command, env):
    proc = subprocess.run(
        command + op["argv"],
        input=op["stdin"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-500:]}


LIBRARY_RUNNERS = {
    "expand": run_expand,
    "to-N": run_to_n,
    "from-N": run_from_n,
    "nprod": run_nprod,
    "mprod": run_mprod,
    "F": run_f,
    "recover": run_recover,
    "split": run_split,
    "geom": run_geom,
    "hilbert": run_hilbert,
}


def library_runner(kind):
    return LIBRARY_RUNNERS.get(kind, run_verify_check)


# ---------------------------------------------------------------------------
# evaluation at integer points, independent of the program's conversions


def eval_monomial(comp, xs):
    """M_comp(xs): sum over strictly increasing index choices."""
    dp = [1] + [0] * len(comp)
    for x in xs:
        for j in range(len(comp), 0, -1):
            dp[j] += dp[j - 1] * x ** comp[j - 1]
    return dp[-1]


def eval_fundamental(comp, xs):
    """L_comp(xs): weakly increasing index words, strictly increasing right
    after each partial sum of comp."""
    n = sum(comp)
    cuts = set()
    total = 0
    for part in comp[:-1]:
        total += part
        cuts.add(total)
    f = list(xs)
    for p in range(1, n):
        strict = p in cuts
        acc, nxt = 0, []
        for v, x in enumerate(xs):
            if strict:
                nxt.append(x * acc)
                acc += f[v]
            else:
                acc += f[v]
                nxt.append(x * acc)
        f = nxt
    return sum(f)


def evaluate(element, xs):
    if element.basis == "M":
        term = eval_monomial
    elif element.basis == "L":
        term = eval_fundamental
    else:
        element, term = qsym.convert(element, "L"), eval_fundamental
    return sum(coeff * term(comp, xs) for comp, coeff in element.terms.items())


def points(degree, count=2):
    rng = random.Random(f"points/{degree}")
    values = (-3, -2, -1, 1, 2, 3)
    return [[rng.choice(values) for _ in range(max(degree, 1))] for _ in range(count)]


def same_function(element, factors):
    """The element agrees with the product of the factors at test points."""
    degree = max((sum(c) for c in element.terms), default=0)
    for xs in points(degree):
        product = 1
        for factor in factors:
            product *= evaluate(factor, xs)
        if evaluate(element, xs) != product:
            return False
    return True


# ---------------------------------------------------------------------------
# checks


def nbasis_count(comp):
    """Number of words in the N element of comp: the product of part factorials."""
    return prod(factorial(a) for a in comp)


def ones_coefficient(element):
    """Coefficient of M[1^n] in a homogeneous element, read off any basis:
    each L[c] holds M[1^n] once and each N[c] holds it nbasis_count(c) times."""
    weight = {"M": lambda c: int(all(p == 1 for p in c)), "L": lambda c: 1, "N": nbasis_count}
    return sum(v * weight[element.basis](c) for c, v in element.terms.items())


def expected_recovery(lam, loops):
    """(lambda, loops, coloops) that recover_rank2 must return for the
    rank-two class of lam with `loops` loops added.  A two-block class has
    one coloop per singleton block; longer classes have none."""
    coloops = sum(1 for part in lam if part == 1) if len(lam) == 2 else 0
    return list(lam), loops, coloops


def check_expand(op, out):
    comp = tuple(op["comp"])
    n, words = sum(comp), nbasis_count(comp)
    in_l, in_m = _element(out["L"]), _element(out["M"])
    return (
        in_l.basis == "L"
        and in_m.basis == "M"
        and all(sum(c) == n and isinstance(v, int) and v > 0 for c, v in in_l.terms.items())
        and ones_coefficient(in_l) == words
        and ones_coefficient(in_m) == words
        and same_function(in_m, [in_l])
    )


def check_to_n(op, out):
    source, result = _element(op["element"]), _element(out)
    return (
        result.basis == "N"
        and ones_coefficient(result) == ones_coefficient(source)
        and qsym.convert(result, source.basis) == source
    )


def check_from_n(op, out):
    source, result = _element(op["element"]), _element(out)
    return (
        result.basis == "M"
        and ones_coefficient(result) == ones_coefficient(source)
        and qsym.convert(result, "N") == source
    )


def check_nprod(op, out):
    if "pair" in op:
        left, right = (QSymElement.single("N", tuple(c)) for c in op["pair"])
    else:
        left, right = _element(op["left"]), _element(op["right"])
    result = _element(out)
    in_m = qsym.mul(qsym.convert(left, "M"), qsym.convert(right, "M"))
    return result.basis == "N" and qsym.convert(result, "M") == in_m


def check_mprod(op, out):
    result = _element(out)
    return result.basis == "M" and same_function(result, [_element(op["left"]), _element(op["right"])])


def invariant_holds(op, f):
    """Identities of F for a generated matroid (n, bases, rank, family)."""
    n, r, loops = op["n"], op["rank"], op.get("loops", 0)
    ok = (
        f.basis == "N"
        and all(isinstance(v, int) and v > 0 for v in f.terms.values())
        and qsym.in_Vnr(f, n, r + loops)
    )
    if loops == 0:
        ok = ok and f.coefficient(drop_zero_parts((r, n - r))) == len(op["bases"])
    if op.get("family") == "uniform":
        ok = ok and f.terms == {drop_zero_parts((r, n - r)): comb(n, r)}
    if "lambda" in op and loops == 0 and op.get("coloops", 0) == 0:
        ok = ok and f == matroids.rank2_qsym(tuple(op["lambda"]))
    return ok


def check_f(op, out):
    return invariant_holds(op, _element(out))


def check_recover(op, out):
    lam, loops, coloops = expected_recovery(op["lambda"], op["loops"])
    return (out["lambda"], out["loops"], out["coloops"]) == (lam, loops, coloops)


def _desc(comp):
    return tuple(sorted(comp, reverse=True))


def split_holds(comp, s, out):
    a, b = sum(comp[:s]), sum(comp[s:])
    alpha, beta, mu = [a] + comp[s:], comp[:s] + [b], [a, b]
    if (out["alpha"], out["beta"], out["mu"]) != (alpha, beta, mu):
        return False
    if out["certificate"]["S"] != list(range(1, a + 1)):
        return False
    rank2 = matroids.rank2_qsym
    return rank2(_desc(comp)) == rank2(_desc(alpha)) + rank2(_desc(beta)) - rank2(_desc(mu))


def check_split(op, out):
    return split_holds(op["comp"], op["s"], out)


def decomposition_holds(lam, members, decomposition):
    reps = sorted(tuple(r["lambda"]) for r in decomposition["representatives"])
    return (
        decomposition["verified"] is True
        and len(members) == max(len(lam) - 2, 1)
        and all(len(m) == 3 and sum(m) == sum(lam) for m in members)
        and reps == sorted(tuple(m) for m in members)
    )


def check_geom(op, out):
    return decomposition_holds(op["lambda"], out["members"], out["decomposition"])


def check_hilbert(op, out):
    return out["passed"] is True and out["n"] == op["n"]


def check_verify_check(op, out):
    return out["passed"] is True and out["id"] == op["kind"]


LIBRARY_CHECKS = {
    "expand": check_expand,
    "to-N": check_to_n,
    "from-N": check_from_n,
    "nprod": check_nprod,
    "mprod": check_mprod,
    "F": check_f,
    "recover": check_recover,
    "split": check_split,
    "geom": check_geom,
    "hilbert": check_hilbert,
}


def library_check(kind):
    return LIBRARY_CHECKS.get(kind, check_verify_check)


# ---------------------------------------------------------------------------
# CLI requests


def prepare_cli(op):
    """Fill in stdin payloads that are derived from the generated values.
    Runs before the timed section, in the session process, not the CLI."""
    expect = op["expect"]
    if op["kind"] == "recover" and op["stdin"] is None:
        element = matroids.rank2_qsym(tuple(expect["lambda"]))
        if expect["loops"]:
            element = qsym.nbasis_product(element, QSymElement.single("N", (expect["loops"],)))
        op["stdin"] = gen.dumps(element.to_json())
    if op["kind"] == "geom-decompose" and op["stdin"] is None:
        members = [list(m) for m in matroids.full_split_to_length3(tuple(expect["lambda"]))]
        expect["J"] = members
        op["stdin"] = gen.dumps({"lambda": expect["lambda"], "J": members})


def check_cli(op, out):
    try:
        payload = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return False
    if "malformed" in op:
        error = payload.get("error") if isinstance(payload, dict) else None
        return (
            out["rc"] == 1
            and list(payload) == ["error"]
            and isinstance(error, dict)
            and sorted(error) == ["kind", "message"]
            and all(isinstance(v, str) for v in error.values())
        )
    if out["rc"] != 0:
        return False
    expect, kind = op["expect"], op["kind"]
    if kind == "expand":
        return payload["composition"] == expect["comp"] and check_expand(expect, payload)
    if kind == "convert":
        return check_to_n(expect, payload)
    if kind == "mul":
        result = _element(payload)
        return result.basis == "M" and same_function(result, [_element(f) for f in expect["factors"]])
    if kind == "matroid-f":
        matroid, stats = expect["matroid"], payload["stats"]
        return (
            invariant_holds(matroid, _element(payload["element"]))
            and stats["num_bases"] == len(matroid["bases"])
            and stats["in_rank_space"] is True
            and stats["loops"] == matroid.get("loops", 0)
        )
    if kind == "recover":
        return check_recover(expect, payload)
    if kind == "rank2-split":
        return split_holds(expect["comp"], expect["s"], payload)
    if kind == "geom-decompose":
        return decomposition_holds(expect["lambda"], expect["J"], payload)
    return payload["all_passed"] is True and len(payload["checks"]) == len(verify.CHECKS)
