"""galforms: exact classification of forms of reductive groups.

Root data and Langlands duality, Galois cohomology of finite groups,
Brauer classes and Hilbert symbols, crossed-product central simple
algebras, and twisted semilinear Galois descent — all in exact rational
arithmetic.

Each name is imported from the module that defines it, for example
`from galforms.root_datum import build_root_datum`.
"""

__version__ = "0.1.0"
