"""Parabolic coset indices over Z/p^m: the closed form (a quotient of
group orders) against a count of cosets, each keyed by the flag of row
spans of its trailing blocks.

The index [GL_n(Z/p^m) : P(Z/p^m)] is the factor by which inducing from a
standard parabolic P multiplies a fixed-space dimension, so getting it
exactly right matters; this demo recomputes it the slow way.
"""

from padic_fixvec import (
    BudgetExceededError,
    enumerate_gl,
    gl_order,
    parabolic_index_closed,
    parabolic_index_enumerated,
    parabolic_order,
)


def main() -> None:
    print("Group orders |GL_n(Z/p^m)| by counting invertible matrices:\n")
    print("n  p  m    counted     formula")
    for n, p, m in [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)]:
        counted = sum(1 for _ in enumerate_gl(n, p, m))
        formula = gl_order(n, p, m)
        print(f"{n}  {p}  {m}  {counted:>9}  {formula:>10}")
    print()

    print("Borel coset index for GL_2, enumeration vs p^(m-1) * (p+1):\n")
    print("p  m   enumerated  closed  p^(m-1)(p+1)")
    for p in (2, 3, 5):
        for m in (1, 2):
            enumerated = parabolic_index_enumerated((1, 1), p, m)
            closed = parabolic_index_closed((1, 1), p, m)
            coefficient = p ** (m - 1) * (p + 1)
            print(f"{p}  {m}  {enumerated:>10}  {closed:>6}  {coefficient:>12}")
    print()

    print("Bigger parabolics of GL_3 at p=2, m=1 (keyed by flag):\n")
    print("partition  |P|  enumerated  closed")
    for partition in ((2, 1), (1, 2), (1, 1, 1)):
        size = parabolic_order(partition, 2, 1)
        enumerated = parabolic_index_enumerated(partition, 2, 1)
        closed = parabolic_index_closed(partition, 2, 1)
        print(f"{str(partition):>9}  {size:>3}  {enumerated:>10}  {closed:>6}")
    print()

    print("Enumeration is budgeted. An instance that would need too many")
    print("candidate rows raises instead of running forever:")
    try:
        parabolic_index_enumerated((1, 1, 1), 5, 1, budget=100)
    except BudgetExceededError as exc:
        print(f"  {exc}")


if __name__ == "__main__":
    main()
