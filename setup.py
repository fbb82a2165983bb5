"""Packaging shim.

pip in the offline evaluation environment lacks the ``wheel`` package,
so modern (PEP 660) editable installs fail.  Keeping the metadata in
``setup.py`` lets ``pip install -e .`` use the legacy editable path,
which needs nothing beyond setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Continuous two-way equi-join queries over Chord "
        "(reproduction of Idreos et al., ICDE 2006)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6"]},
)
