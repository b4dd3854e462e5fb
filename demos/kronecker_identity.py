"""Show that applying a Kronecker-product map never requires building it.

The whole package rests on one linear-algebra fact: for an h x h matrix a,
a w x w matrix b, and an h x w matrix x,

    (a kron b) @ row(x)  ==  row(a @ x @ b.T)

where row(x) stacks the rows of x into one vector, x.reshape(-1).  The left
side touches (hw)^2 numbers, the right side touches h^2 + w^2.  This script
demonstrates both the identity and the cost gap.
"""

import time

import numpy as np

from couplformer import autograd as ag

rng = np.random.default_rng(7)

h, w = 6, 5
a = rng.standard_normal((h, h))
b = rng.standard_normal((w, w))
x = rng.standard_normal((h, w))

# slow route: materialize the (hw) x (hw) map and hit the flattened vector
big = ag.kron(ag.constant(a), ag.constant(b)).value.data
slow = big @ x.reshape(-1)

# fast route: the package's factored op, one head and one channel
fast = ag.apply_factored_map(
    ag.constant(a[None]), ag.constant(b[None]), ag.constant(x[None, :, :, None])
).value.data.reshape(-1)

print(f"kron map shape      : {big.shape}  ({big.shape[0] * big.shape[1]} elements)")
print(f"factored state      : {h * h + w * w} elements")
print(f"max |slow - fast|   : {np.max(np.abs(slow - fast)):.3e}")

# the element law that makes the flattening consistent: entry (i, j) of the
# big map is a[i // w, j // w] * b[i % w, j % w]
i, j = 13, 22
print(f"kron[{i},{j}]          : {big[i, j]:+.6f}")
print(f"a[{i // w},{j // w}] * b[{i % w},{j % w}]     : {a[i // w, j // w] * b[i % w, j % w]:+.6f}")

# cost gap at a realistic token-grid size
h, w = 56, 56
a = rng.standard_normal((h, h))
b = rng.standard_normal((w, w))
x = rng.standard_normal((h, w))

t0 = time.perf_counter()
full = np.kron(a, b) @ x.reshape(-1)
t1 = time.perf_counter()
small = (a @ x @ b.T).reshape(-1)
t2 = time.perf_counter()

print(f"\n{h}x{w} grid -> map with {(h * w) ** 2:,} entries")
print(f"materialized route  : {t1 - t0:8.4f} s")
print(f"factored route      : {t2 - t1:8.4f} s")
print(f"agreement           : {np.max(np.abs(full - small)):.3e}")
