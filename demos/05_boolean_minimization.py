"""Use the two-level minimizer directly.

Ones and zeros are integer minterms; everything else is a don't-care the
minimizer may absorb.  The result is a list of prime implicants, of minimum
cardinality whenever its ``minimal`` attribute is True (always, on problems
this small), and deterministic down to clause order.
"""

from mapex.boolmin import minimize

# three variables: x0, x1, x2
ones = {0b011, 0b111}
zeros = {0b000, 0b001, 0b100}

dnf = minimize(ones, zeros, 3)
print(f"ones={sorted(ones)} zeros={sorted(zeros)} -> {len(dnf)} implicant(s)")
for imp in dnf:
    lits = " & ".join(f"{'' if pol else '!'}x{v}" for v, pol in imp.literals())
    print(f"  {lits or 'TRUE'}   (care mask {imp.care_mask:03b})")

# don't-cares let a single cube cover widely separated ones
dnf = minimize({0b000, 0b110}, {0b001}, 3)
print("\nwith generous don't-cares:")
for imp in dnf:
    lits = " & ".join(f"{'' if pol else '!'}x{v}" for v, pol in imp.literals())
    print(f"  {lits or 'TRUE'}")

# no zeros at all collapses to the tautology
print("\nno zeros:", minimize({0b101}, set(), 3))
