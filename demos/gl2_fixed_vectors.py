"""Fixed-space dimensions for the three kinds of irreducible GL_2
representations, and three computations of the supercuspidal ones. A
principal series is the representation induced from two characters.

Run as a script; everything prints as small tables over exact integers.
"""

from padic_fixvec import (
    GenericRepresentation,
    SteinbergTwist,
    Supercuspidal,
    dim_supercuspidal_lattice,
    dim_supercuspidal_minimal,
    kirillov_basis_count,
    kirillov_groups,
)


def dimension_table(q: int, reps, max_m: int) -> None:
    header = "rep".ljust(34) + "".join(f"m={m}".rjust(7) for m in range(max_m + 1))
    print(header)
    for label, rep in reps:
        dims = [rep.dim(q, m) for m in range(max_m + 1)]
        print(label.ljust(34) + "".join(str(d).rjust(7) for d in dims))
    print()


def principal_series(c1: int, c2: int) -> GenericRepresentation:
    return GenericRepresentation.from_pairs([(1, c1), (1, c2)])


def main() -> None:
    q = 3
    print(f"Residue field size q = {q}; K(m) is the principal congruence")
    print("subgroup of level m. Dimensions of the K(m)-fixed subspace:\n")

    reps = [
        ("principal series, unramified", principal_series(0, 0)),
        ("principal series, conductors 1,0", principal_series(1, 0)),
        ("Steinberg", SteinbergTwist(0)),
        ("Steinberg twisted, conductor 2", SteinbergTwist(2)),
        ("supercuspidal, conductor 2", Supercuspidal(2)),
        ("supercuspidal, conductor 5", Supercuspidal(5)),
        ("supercuspidal 3, twist conductor 4", Supercuspidal(3, 4)),
    ]
    dimension_table(q, reps, max_m=5)

    print("Monotone growth in m, vanishing below the minimal level, and the")
    print("jump at the minimal level are visible in each row. For minimal")
    print("supercuspidals the dimension is computed three ways. They are one")
    print("sum: twist classes of conductor i add (class count) * (2m - c_i + 1)")
    print("in the lattice sum and in the Kirillov count, and the closed form")
    print("sums it. They check the arithmetic, not the group itself.\n")

    print("q  s  m   closed  twist-lattice  kirillov-count")
    for s in (2, 3, 4, 5):
        m = -(-s // 2) + 1
        closed = dim_supercuspidal_minimal(q, s, m)
        lattice = dim_supercuspidal_lattice(q, s, m)
        kirillov = kirillov_basis_count(q, s, 0, m)
        print(f"{q}  {s}  {m}   {closed:>6}  {lattice:>13}  {kirillov:>14}")
    print()

    s, m = 3, 2
    print(f"The Kirillov-model basis behind the count for s={s}, m={m}: each")
    print("twist class of conductor i gives one function per support order.")
    for i, classes, lo, hi in kirillov_groups(q, s, 0, m):
        print(
            f"  twist conductor {i}: classes {classes}, support orders"
            f" {lo}..{hi}, count {classes * (hi - lo + 1)}"
        )


if __name__ == "__main__":
    main()
