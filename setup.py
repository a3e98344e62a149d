"""Legacy setup shim.

The execution environment has setuptools but no ``wheel`` package, so
PEP 517 editable installs fail. This shim lets
``pip install -e . --no-build-isolation --no-use-pep517`` work offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="2.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.dashboard": ["specs/*.json"], "repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
)
