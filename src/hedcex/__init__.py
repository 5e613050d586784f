"""Exact construction and verification of tensor-product coloring
counterexamples built from odd-power adjoints of complete graphs.

Every name is imported from the module that defines it.  Importing the
package loads the verifier's modules, as a command-line call does."""

from . import certificate  # noqa: F401
