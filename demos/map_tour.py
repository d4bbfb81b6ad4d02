"""Walk through the explicit map at (N, d) = (2, 4).

Builds both sides, shows one image expansion, checks kernel membership,
reads off coordinates in the semistandard-pair basis, prints one weight
block of the triangular certificate, and round-trips the exact inverse.
"""

from plethy import (
    ZZ,
    basis,
    basis_image,
    dim,
    identity_map,
    iso_context,
    multiplication_map,
)

N, d = 2, 4
ctx = iso_context(N, d)

print(f"domain  : {ctx.domain}  (dim {dim(ctx.domain)})")
print(f"ambient : {ctx.hook.ambient}  (dim {dim(ctx.hook.ambient)})")
print(f"kernel  : {len(ctx.hook.pairs)} semistandard pairs")
print()

s, k = 1, (0, 2, 5)
image = basis_image(ZZ, N, d, s, k)
print(f"image of s={s}, k={k}:")
for label, coeff in sorted(image.coeffs.items()):
    print(f"  {coeff:+d} * {ctx.hook.ambient.label_str(label)}")

mu = multiplication_map(ZZ, N, d)
print("lands in the kernel:", mu.apply(image).is_zero())

coords = ctx.hook.coordinates(image)
print("coordinates in the pair basis:")
for pair, coeff in sorted(coords.coeffs.items()):
    print(f"  {coeff:+d} * {ctx.hook.coords.label_str(pair)}")
print()

w = 7
rows, cols, mat = ctx.weight_block_matrix(w)
print(f"Y-degree {w} block of the paired coordinate matrix:")
header = " ".join(f"{ctx.domain.label_str(c):>10}" for c in cols)
print(" " * 12 + header)
for pair, row in zip(rows, mat):
    cells = " ".join(f"{v:>10}" for v in row)
    print(f"{ctx.hook.coords.label_str(pair):>10}  {cells}")
print("unit diagonal, zeros above: the determinant is", ctx.determinant)
print()

inv = ctx.inverse()
coord = ctx.coord_matrix_over(ZZ)
ok_domain = inv.compose(coord) == identity_map(ZZ, ctx.domain)
ok_pairs = coord.compose(inv) == identity_map(ZZ, ctx.hook.coords)
integral = all(isinstance(v, int) for col in inv.cols for v in col.values())
print("inverse is integral:", integral)
print("inverse round trips both ways:", ok_domain and ok_pairs)
print()
print("first domain basis labels:", [
    ctx.domain.label_str(l) for l in basis(ctx.domain)[:4]
])
