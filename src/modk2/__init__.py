"""Exact verification suite for maps from modular symbols into cyclotomic K2.

Everything here is exact: integers are arbitrary precision, cyclotomic
integers are polynomials with int coefficients reduced by the monic
cyclotomic polynomial, residue fields are tables over small primes.  No
floating point anywhere.
"""

__version__ = "0.1.0"
