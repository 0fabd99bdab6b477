"""From block data to levels and back: the conductor/depth/level criteria
for induced representations, and the global conductor bounds that a
minimal principal congruence level imposes.
"""

from padic_fixvec import (
    GenericRepresentation,
    GlobalLevel,
    conductor_window,
    has_fixed_vector,
    local_conductor_window,
)


def main() -> None:
    print("A representation induced from essentially square integrable")
    print("blocks (n_i, c_i) has a K(m)-fixed vector iff c_i <= m*n_i for")
    print("every block. Some examples:\n")

    examples = [
        [(2, 3), (1, 1)],
        [(2, 5)],
        [(1, 0), (1, 0), (1, 0)],
        [(3, 7), (1, 2)],
    ]
    print("blocks (n_i, c_i)        conductor  min level  block depths")
    for pairs in examples:
        rep = GenericRepresentation.from_pairs(pairs)
        depths = ", ".join(str(b.depth()) for b in rep.blocks)
        print(
            f"{str(pairs):<24} {rep.conductor():>9}  {rep.min_level():>9}"
            f"  {depths}"
        )
    print()

    rep = GenericRepresentation.from_pairs([(2, 3), (1, 1)])
    print("Levels for blocks [(2, 3), (1, 1)]:")
    for m in range(4):
        print(f"  K({m})-fixed vector: {has_fixed_vector(rep, m)}")
    print()

    print("Knowing only (n, m) with m the minimal level, the conductor is")
    print("pinned to a window:")
    for n, m, square in [(2, 2, True), (3, 1, False), (4, 0, False)]:
        window = conductor_window(n, m, square_integrable=square)
        kind = "square integrable" if square else "generic"
        print(f"  n={n}, minimal level {m} ({kind}): conductor in {window}")
    print()

    print("Globally, a representation of GL_n over the rationals with")
    print("minimal principal congruence level N has conductor within")
    print("[max(rad N, N/rad N), N^n], refined prime by prime:\n")
    n = 2
    for N in (12, 360, 1024):
        level = GlobalLevel(N)
        bounds = level.conductor_bounds(n)
        windows = "; ".join(
            f"p={p}: exponent in {local_conductor_window(n, e)}"
            for p, e in level.factorization
        )
        print(f"N = {N:>4}, n = {n}: conductor in {bounds}")
        print(f"            {windows}")


if __name__ == "__main__":
    main()
