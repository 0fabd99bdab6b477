"""Seeded inputs for the cli-deep workload and the answers they must get.

Every expected answer is derived here from the closed forms stated in the
paper, never from padic_fixvec. Where the library has one route to a
number, this module takes another (the parabolic index as a q-multinomial
coefficient, the supercuspidal dimension as a summed arithmetico-geometric
series), and selftest.py checks these against plain loops.
"""

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# CPython refuses to print an int of more than this many digits.
DIGIT_LIMIT = 4300

SUBCOMMANDS = ("dim", "has-fixed", "min-level", "conductor", "depth",
               "kirillov-basis", "global-bounds")

# ---------------------------------------------------------------------------
# Number theory owned by the benchmark.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


SMALL_PRIMES = [n for n in range(2, 50) if is_prime(n)]


def num_classes(q: int, i: int) -> int:
    """Unramified-twist classes of conductor exactly i."""
    return 1 if i == 0 else q - 2 if i == 1 else (q - 1) ** 2 * q ** (i - 2)


def supercuspidal_dim(q: int, s: int, m: int) -> int:
    """K(m)-fixed dimension of a minimal supercuspidal of conductor s.

    The twist-class sum over i of N(i) * (2m - max(s, 2i) + 1)^+ splits at
    r = s // 2 into (2m - s + 1) * #(classes of conductor <= r) and the
    series sum_{k<K} (2K - 1 - 2k) (q-1)^2 q^(r-1+k) with K = m - r, summed
    here in closed form.
    """
    if m < 1 or s > 2 * m:
        return 0
    r = s // 2
    k = m - r
    qk = q**k
    series = (2 * k - 1) * (q - 1) * (qk - 1) - 2 * (q - k * qk + (k - 1) * qk * q)
    return q ** (r - 1) * ((2 * m - s + 1) * (q - 1) + series)


def supercuspidal_dim_by_sum(q: int, s: int, m: int) -> int:
    """The same dimension as the literal twist-class sum (a test oracle)."""
    if m < 1:
        return 0
    return sum(num_classes(q, i) * max(0, 2 * m - max(s, 2 * i) + 1)
               for i in range(m + 1))


def parabolic_index(partition, q: int, m: int) -> int:
    """[GL_n(O/p^m) : P(O/p^m)] as q^((m-1) dim(G/P)) times the
    q-multinomial coefficient [n; n_1, ..., n_k]_q."""
    if m == 0:
        return 1

    def qfact(k):
        out = 1
        for j in range(1, k + 1):
            out *= q**j - 1
        return out

    index = qfact(sum(partition))
    for part in partition:
        index //= qfact(part)
    above = sum(a * b for i, a in enumerate(partition)
                for b in partition[i + 1:])
    return q ** ((m - 1) * above) * index


# ---------------------------------------------------------------------------
# Representations and their answers.

def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Rep:
    kind: str              # induced | principal-series | steinberg-twist | supercuspidal
    data: tuple            # blocks ((n, c), ...) | (c1, c2) | (c_chi,) | (s, c_chi)

    def spec(self, p: int, f: int) -> dict:
        if self.kind == "induced":
            rep = {"type": "induced",
                   "blocks": [{"n": n, "conductor": c} for n, c in self.data]}
        elif self.kind == "principal-series":
            rep = {"type": self.kind, "c1": self.data[0], "c2": self.data[1]}
        elif self.kind == "steinberg-twist":
            rep = {"type": self.kind, "c_chi": self.data[0]}
        else:
            rep = {"type": self.kind, "minimal_conductor": self.data[0],
                   "twist_conductor": self.data[1]}
        return {"field": {"p": p, "f": f}, "rep": rep}

    def conductor(self) -> int:
        if self.kind == "induced":
            return sum(c for _, c in self.data)
        if self.kind == "principal-series":
            return sum(self.data)
        if self.kind == "supercuspidal":
            s, c_chi = self.data
            return max(s, 2 * c_chi)
        raise ValueError("no conductor for a Steinberg twist here")

    def min_level(self) -> int:
        if self.kind == "induced":
            return max(_ceil_div(c, n) for n, c in self.data)
        if self.kind == "principal-series":
            return max(self.data)
        if self.kind == "steinberg-twist":
            return max(self.data[0], 1)
        return _ceil_div(self.conductor(), 2)

    def dim(self, q: int, m: int) -> int:
        if self.kind == "induced":
            if any(c > m for _, c in self.data):
                return 0
            return parabolic_index([n for n, _ in self.data], q, m)
        if self.kind == "principal-series":
            if max(self.data) > m:
                return 0
            return 1 if m == 0 else q ** (m - 1) * (q + 1)
        if self.kind == "steinberg-twist":
            if m == 0 or self.data[0] > m:
                return 0
            return q**m + q ** (m - 1) - 1
        if self.conductor() > 2 * m:
            return 0
        return supercuspidal_dim(q, self.data[0], m)

    def has_fixed(self, m: int) -> bool:
        if self.kind == "induced":
            return all(c <= m * n for n, c in self.data)
        return m >= self.min_level() and (m >= 1 or self.kind == "principal-series")

    def depth(self) -> Fraction:
        if self.kind == "induced":
            (n, c), = self.data
            return max(Fraction(c - n, n), Fraction(0))
        return Fraction(self.conductor() - 2, 2)


def _log10(x: int) -> float:
    """log10 of a positive int of any size."""
    bits = x.bit_length()
    if bits < 1000:
        return math.log10(x)
    return math.log10(x >> (bits - 900)) + (bits - 900) * math.log10(2)


# ---------------------------------------------------------------------------
# Cases.

@dataclass
class Case:
    """One CLI call and what counts as success for it.

    answer() gives the (JSON payload, table rows) the call must print; the
    check looks at those keys only. digits estimates the longest integer
    in that answer. A case with answer None must be rejected; one whose
    answer is longer than DIGIT_LIMIT may be rejected. A rejection counts
    only when stderr names the input through one of tokens.
    """

    category: str
    argv: list
    answer: Optional[Callable[[], tuple]]
    digits: float
    tokens: tuple = ()

    @property
    def must_answer(self) -> bool:
        return self.answer is not None and self.digits <= DIGIT_LIMIT


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _simple(payload: dict) -> tuple:
    return payload, {k: _fmt(v) for k, v in payload.items()}


def _spec_case(category, command, p, f, rep, level, json_out, tokens=(),
               c_psi=None, digits=None):
    """A spec subcommand call with its answer and estimated size."""
    argv = [command, json.dumps(rep.spec(p, f), separators=(",", ":"))]
    if level is not None:
        argv += ["--level", str(level)]
    if c_psi is not None:
        argv += ["--c-psi", str(c_psi)]
    if json_out:
        argv.append("--json")
    q_digits = f * math.log10(p)
    if digits is None:
        # A dimension is below q^(level+1); the other answers stay short.
        size = level if command in ("dim", "kirillov-basis") else 0
        digits = q_digits * (max(size, 1) + 1) + 3

    def answer():
        q = p**f
        if command == "dim":
            return _simple({"dimension": rep.dim(q, level), "level": level,
                            "q": q})
        if command == "has-fixed":
            return _simple({"has_fixed_vector": rep.has_fixed(level),
                            "level": level, "q": q})
        if command == "min-level":
            return _simple({"min_level": rep.min_level(), "q": q})
        if command == "conductor":
            return _simple({"conductor": rep.conductor()})
        if command == "depth":
            return _simple({"depth": str(rep.depth())})
        s, _ = rep.data
        dimension = (supercuspidal_dim(q, s, level) if level >= 1 else 0)
        return _simple({"dimension": dimension, "level": level, "q": q,
                        "c_psi": c_psi})

    return Case(category, argv, answer, max(digits, q_digits), tokens)


def _global_bounds_case(category, n, factors, json_out, tokens=()):
    """global-bounds for N = prod p^e, with the factorization known."""
    N = 1
    for p, e in factors:
        N *= p**e
    argv = ["global-bounds", "--n", str(n), "--level-N", str(N)]
    if json_out:
        argv.append("--json")
    digits = n * _log10(N) + 1 if N > 1 else 1

    def answer():
        rad = math.prod(p for p, _ in factors)
        windows = [{"p": p, "e": e, "lo": max(e - 1, 1), "hi": e * n}
                   for p, e in factors]
        lower, upper = max(rad, N // rad), N**n
        payload = {"N": N, "n": n, "lower": lower, "upper": upper,
                   "factorization": [[p, e] for p, e in factors],
                   "local_windows": windows}
        factor_str = " * ".join(f"{p}^{e}" if e > 1 else str(p)
                                for p, e in factors) or "1"
        rows = {"N": f"{N} = {factor_str}", "n": str(n), "lower": str(lower),
                "upper": str(upper),
                "local windows": "; ".join(
                    f"p={w['p']}: [{w['lo']}, {w['hi']}]" for w in windows
                ) or "(none)"}
        return payload, rows

    return Case(category, argv, answer, digits, tokens)


def _factor_small(N: int) -> list:
    out, d = [], 2
    while d * d <= N:
        if N % d == 0:
            e = 0
            while N % d == 0:
                N, e = N // d, e + 1
            out.append((d, e))
        d += 1
    if N > 1:
        out.append((N, 1))
    return out


def _rejection(category, argv, tokens):
    return Case(category, argv, None, 0.0, tuple(tokens))


def warmup_cases() -> list:
    """One fixed call per subcommand, run untimed so .pyc files exist."""
    sc = Rep("supercuspidal", (3, 0))
    out = [_spec_case("warmup", command, 3, 1, sc, 2 if command in (
        "dim", "has-fixed", "kirillov-basis") else None, False,
        c_psi=0 if command == "kirillov-basis" else None)
        for command in SUBCOMMANDS[:-1]]
    out.append(_global_bounds_case("warmup", 2, [(2, 2), (3, 1)], False))
    return out


# -- cli-deep ----------------------------------------------------------------

LEVEL_TOKENS = ("level",)
N_TOKENS = ("--n", "--level-N", "group size", "level")
F_TOKENS = ("field.f", "residue degree")


# Residue characteristics of the at-scale spec inputs. The CLI checks that
# p is prime before anything else; by trial division that costs the seed
# program about 0.4 s here, so these calls carry L3 work as well as the
# interpreter and imports that every call pays.
LARGE_P = (2 * 10**13, 3 * 10**13)


def deep_batch(rng) -> list:
    """One call per category: answers at scale that fit in DIGIT_LIMIT
    digits, answers past it, inputs that hang the seed program, and
    malformed or out-of-range specs. Ranges keep each category's outcome
    class and cost narrow, away from the digit limit and the timeout."""
    fmt = lambda: rng.random() < 0.5  # noqa: E731
    small = lambda: rng.choice(SMALL_PRIMES)  # noqa: E731
    large = lambda: random_prime(rng, *LARGE_P)  # noqa: E731
    cases = []

    def spec(category, command, p, f, rep, level, tokens=(), **kw):
        cases.append(_spec_case(category, command, p, f, rep, level, fmt(),
                                tokens, **kw))

    # Answers at scale (every one fits in DIGIT_LIMIT digits).
    spec("fits.ps-level", "dim", large(), 1,
         Rep("principal-series", (rng.randint(0, 50), rng.randint(0, 50))),
         rng.randint(100, 280))
    spec("fits.st-level", "dim", large(), 1,
         Rep("steinberg-twist", (rng.randint(0, 90),)), rng.randint(100, 280))
    spec("fits.sc-level", "dim", large(), 1,
         Rep("supercuspidal", (rng.randint(2, 60), rng.randint(0, 40))),
         rng.randint(100, 280))
    spec("fits.kirillov", "kirillov-basis", large(), 1,
         Rep("supercuspidal", (rng.randint(2, 60), 0)),
         rng.randint(100, 280), c_psi=rng.randint(-2, 2))
    level = rng.randint(30, 90)
    spec("fits.induced-gl3", "dim", large(), 1,
         Rep("induced", tuple((1, rng.randint(0, 30)) for _ in range(3))),
         level, digits=3 * level * 13.5 + 3)
    big = 10 ** rng.randint(30, 60)
    rep = Rep("supercuspidal", (rng.randint(2, big), rng.randint(0, big)))
    spec("fits.big-conductor", rng.choice(("min-level", "conductor",
                                            "depth")), large(), 1, rep, None)
    spec("fits.induced-has-fixed", "has-fixed", large(), 1,
         Rep("induced", tuple((rng.randint(1, 4), rng.randint(1, 10**6))
                              for _ in range(3))),
         rng.randint(10**4, 10**5))
    spec("fits.sc-level-q2", "dim", 2, 1,
         Rep("supercuspidal", (rng.randint(2, 60), rng.randint(0, 40))),
         rng.randint(9000, 9500))
    spec("fits.kirillov-q2", "kirillov-basis", 2, 1,
         Rep("supercuspidal", (rng.randint(2, 60), 0)),
         rng.randint(1500, 1600), c_psi=rng.randint(-2, 2))
    a = b = random_prime(rng, 10**8, 10**9)
    while b == a:
        b = random_prime(rng, 10**8, 10**9)
    cases.append(_global_bounds_case(
        "fits.gb-large-N", rng.randint(2, 150), sorted([(a, 1), (b, 1)]),
        fmt()))
    cases.append(_global_bounds_case(
        "fits.gb-large-n", rng.randint(300, 600),
        _factor_small(rng.randint(10**5, 10**6)), fmt()))

    # Answers past DIGIT_LIMIT digits: an answer or a clean rejection.
    spec("big.ps-level", "dim", large(), 1, Rep("principal-series", (1, 2)),
         rng.randint(400, 1000), LEVEL_TOKENS)
    spec("big.sc-level", "dim", large(), 1,
         Rep("supercuspidal", (rng.randint(2, 60), 0)),
         rng.randint(340, 500), LEVEL_TOKENS)
    cases.append(_global_bounds_case(
        "big.gb-n", rng.randint(1000, 2000),
        _factor_small(rng.randint(10**5, 10**6)), fmt(), N_TOKENS))
    p, f = small(), rng.randint(10**4, 10**5)
    spec("big.f", "dim", p, f, Rep("steinberg-twist", (1,)), 2, F_TOKENS,
         digits=f * math.log10(p) * 2)

    # Inputs that run far past the timeout in the seed program.
    spec("hang.huge-p", "dim", random_prime(rng, 10**17, 10**18), 1,
         Rep("principal-series", (0, 1)), rng.randint(1, 3))
    spec("hang.sc-level", "dim", 2, 1,
         Rep("supercuspidal", (rng.randint(2, 60), 0)),
         rng.randint(10**5, 2 * 10**5), LEVEL_TOKENS)
    spec("hang.kirillov-level", "kirillov-basis", 2, 1,
         Rep("supercuspidal", (rng.randint(2, 60), 0)),
         rng.randint(2 * 10**6, 4 * 10**6), LEVEL_TOKENS, c_psi=0)
    spec("hang.kirillov-q3", "kirillov-basis", 3, 1,
         Rep("supercuspidal", (rng.randint(2, 60), 0)),
         rng.randint(12000, 15000), LEVEL_TOKENS, c_psi=0)
    cases.append(_global_bounds_case(
        "hang.gb-n", rng.randint(5 * 10**7, 10**8),
        # An odd N: CPython raises a power of two to a huge power quickly.
        _factor_small(rng.randrange(3, 100, 2)), fmt(), N_TOKENS))
    p, f = rng.choice((3, 5, 7)), rng.randint(5 * 10**7, 10**8)
    spec("hang.f", "min-level", p, f, Rep("steinberg-twist", (1,)), None,
         F_TOKENS, digits=f * math.log10(p))

    # Malformed or out-of-range input: a clean rejection naming it.
    good = Rep("supercuspidal", (3, 0)).spec(large(), 1)

    def bad(category, command, spec_obj, tokens, extra=("--level", "2")):
        text = spec_obj if isinstance(spec_obj, str) else json.dumps(spec_obj)
        argv = [command, text, *extra] + (["--json"] if fmt() else [])
        cases.append(_rejection(category, argv, tokens))

    a, b = random_prime(rng, 100, 1000), random_prime(rng, 100, 1000)
    bad("bad.p-composite", "min-level",
        {**good, "field": {"p": a * b}}, ("field.p",), ())
    bad("bad.f-range", "dim", {**good, "field": {**good["field"],
                                                  "f": rng.randint(-5, 0)}},
        ("field.f",))
    bad("bad.level-negative", "dim", good, ("level",),
        ("--level", str(rng.randint(-10**6, -1))))
    bad("bad.level-not-int", "has-fixed", good, ("--level",),
        ("--level", rng.choice(("1.5", "two", "1e3"))))
    bad("bad.json", "dim", json.dumps(good)[:rng.randint(5, 30)], ("spec",))
    bad("bad.kirillov-twist", "kirillov-basis",
        {**good, "rep": {"type": "supercuspidal", "minimal_conductor": 4,
                         "twist_conductor": rng.randint(1, 9)}},
        ("rep.twist_conductor",))
    argv = ["global-bounds", "--n", "2", "--level-N",
            str(rng.choice((0, -rng.randint(1, 99), 10**18 + rng.randint(1, 99))))]
    cases.append(_rejection("bad.gb-N-range", argv, N_TOKENS))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# Checking one call.

_ROW = re.compile(r"^(.*?\S)\s{2,}(.*)$")


def parse_table(text: str) -> dict:
    rows = {}
    for line in text.splitlines():
        match = _ROW.match(line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


def classify(case: Case, result) -> str:
    """One of: ok, rejected (a clean rejection that counts as success),
    wrong, refused (a clean rejection of a question that has an answer),
    timeout, internal_error (traceback, digit-limit message, exit code
    other than 0 or 1, or exit 1 after partial output)."""
    if result.timed_out:
        return "timeout"
    err = result.stderr
    if (result.returncode not in (0, 1) or "Traceback" in err
            or "Exceeds the limit" in err):
        return "internal_error"
    if result.returncode == 1:
        if result.stdout.strip():
            return "internal_error"
        if case.must_answer or not any(t in err for t in case.tokens):
            return "refused"
        return "rejected"
    if case.answer is None:
        return "wrong"
    if case.digits > 10**6:
        return "wrong"  # cannot have printed it within the timeout
    payload, rows = case.answer()
    if "--json" in case.argv:
        try:
            got = json.loads(result.stdout)
        except ValueError:
            return "wrong"
        want = payload
    else:
        got, want = parse_table(result.stdout), rows
    if not isinstance(got, dict):
        return "wrong"
    return "ok" if all(got.get(k) == v for k, v in want.items()) else "wrong"


FAILED = ("wrong", "refused", "timeout", "internal_error")
