"""Packaging for the repro reproduction.

Kept as a plain ``setup.py`` (no PEP 517 build isolation) so that
``pip install -e .`` works on offline machines that lack the ``wheel``
package and cannot reach PyPI.  Installs the ``repro`` console script —
the CLI front door (``repro run`` / ``sweep`` / ``serve`` / ``bench``,
see :mod:`repro.cli`).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version from the package itself.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Federated heavy hitter analytics with local differential privacy "
        "(SIGMOD 2025 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={
        "yaml": ["PyYAML"],
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
