"""Packaging for the repro library (legacy path: offline env lacks wheel)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Adding Packet Radio to the Ultrix Kernel' "
        "(Neuman & Yamamoto, USENIX 1988): AX.25/KISS packet radio, an "
        "Ultrix-style kernel network stack, and an AMPRnet-to-Internet IP "
        "gateway, all as a deterministic discrete-event simulation."
    ),
    license="MIT",
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
