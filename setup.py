"""Legacy setuptools entry point, carrying the package metadata itself.

The offline environments this repository targets may lack the ``wheel``
package required for PEP 660 editable installs; ``setup.py develop`` (which
``pip install -e .`` falls back to when no ``[build-system]`` table is
present) works without it.  There is no ``pyproject.toml``, so everything
an install needs is declared here: ``src/repro`` has no ``__init__.py``
(an implicit namespace package), hence ``find_namespace_packages`` —
plain ``find_packages`` finds nothing under ``src``.  SciPy is imported by
:mod:`repro.analysis` only; the compiled search core is shipped as C
source and built at first use (where there is no compiler the engine
runs every search through the scalar decoder instead).
"""

from setuptools import find_namespace_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_namespace_packages("src"),
    package_data={"repro.sphere": ["search_core.c"]},
    install_requires=["numpy", "scipy"],
)
