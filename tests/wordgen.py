"""Seeded random generators shared by the freeword and acceptance suites."""

import random
from fractions import Fraction

from freeprod.freeword import FiniteCommLeg, FreeProduct, standard_model
from freeprod.trigalg import TrigPoly


def model_with_comm() -> FreeProduct:
    return standard_model([
        FiniteCommLeg("A", 2, {"x": (1, -1), "y": (2, 1)}),
        FiniteCommLeg("B", 3, {"z": (1, 0, -1)}),
    ])


def rand_trig(rng: random.Random) -> TrigPoly:
    out = TrigPoly.zero()
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(0, 3)
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if rng.random() < 0.5 or k == 0:
            out = out + TrigPoly.cos(k, q)
        else:
            out = out + TrigPoly.sin(k, q)
    if out.is_zero():
        out = TrigPoly.cos(1)
    return out


def rand_letters(fp: FreeProduct, rng: random.Random, max_len: int,
                 comm: bool = True):
    """A raw letter sequence alternating between the trig leg and the
    non-commutative/commutative legs, of length <= max_len."""
    others = ["u", "v"] + (["A", "B"] if comm else [])
    letters = []
    use_trig = rng.random() < 0.5
    for _ in range(rng.randint(1, max_len)):
        if use_trig:
            letters.append(fp.leg("f").letter(rand_trig(rng)))
        else:
            leg = fp.leg(rng.choice(others))
            if leg.kind == "haar":
                letters.append(leg.gen(rng.choice([-2, -1, 1, 2])))
            else:
                name = rng.choice(sorted(leg.elements))
                letters.append(leg.element(name))
        use_trig = not use_trig
    return letters


def rand_word(fp: FreeProduct, rng: random.Random, max_len: int,
              comm: bool = True):
    """A canonical alternating word (letters of one normalized term)."""
    while True:
        nc = fp.normalize(rand_letters(fp, rng, max_len, comm))
        terms = nc.terms()
        words = [w for w, _ in terms if w]
        if words:
            return rng.choice(words)


def rand_balanced_letters(fp: FreeProduct, rng: random.Random, min_len: int,
                          max_len: int):
    """A raw letter sequence of length min_len..max_len alternating between
    the trig leg and the other legs, whose Haar letters come in pairs
    u^k ... u^-k, so that a fair share of the traces does not vanish."""
    n = rng.randint(min_len, max_len)
    use_trig = rng.random() < 0.5
    n_other = n // 2 if use_trig else (n + 1) // 2
    others = []
    while len(others) < n_other:
        if n_other - len(others) >= 2 and rng.random() < 0.4:
            leg = fp.leg(rng.choice(["u", "v"]))
            k = rng.choice([1, 1, 2])
            i = rng.randint(0, len(others))
            j = rng.randint(i, len(others))
            others.insert(j, leg.gen(-k))
            others.insert(i, leg.gen(k))
        else:
            leg = fp.leg(rng.choice(["A", "B"]))
            others.append(leg.element(rng.choice(sorted(leg.elements))))
    rest = iter(others)
    letters = []
    for _ in range(n):
        letters.append(fp.leg("f").letter(rand_trig(rng)) if use_trig else next(rest))
        use_trig = not use_trig
    return letters
