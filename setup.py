"""Packaging for the HiSVSIM reproduction.

The package lives under ``src/`` (``import repro`` needs either
``pip install -e .`` or ``PYTHONPATH=src``).  On offline boxes without
the ``wheel`` distribution, PEP 660 editable wheels are unavailable; use
the legacy path::

    pip install -e . --no-use-pep517 --no-build-isolation --no-deps
"""

from setuptools import find_packages, setup

setup(
    name="hisvsim-repro",
    version="1.1.0",
    description=(
        "Reproduction of 'Efficient Hierarchical State Vector Simulation "
        "of Quantum Circuits via Acyclic Graph Partitioning' "
        "(Fang et al., CLUSTER 2022)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy>=1.22"],
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
    extras_require={
        "ilp": ["scipy>=1.9"],
        "test": ["pytest>=7", "hypothesis>=6", "scipy>=1.9"],
    },
)
