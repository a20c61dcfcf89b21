"""Package metadata and ``src/``-layout discovery for the SpliDT reproduction.

``pip install -e .`` (or a plain ``pip install .``) makes ``import repro``
work without the ``PYTHONPATH=src`` workaround; the repository also remains
fully usable *without* installation because ``conftest.py`` and the example
scripts prepend ``src/`` to ``sys.path`` themselves.  Both paths are
documented in the README.
"""

from setuptools import find_packages, setup

setup(
    name="splidt-repro",
    version="1.1.0",
    description=(
        "Reproduction of SpliDT: partitioned decision trees for scalable "
        "stateful inference at line rate (SIGCOMM 2025)"
    ),
    long_description=(
        "Synthetic-data reproduction of the SpliDT paper: partitioned "
        "decision-tree training, range-marking TCAM rule generation, an RMT "
        "switch model, packet-level replay with reference and vectorized "
        "engines, baselines, benchmark regenerators for the paper's "
        "figures and tables, and a declarative experiment pipeline "
        "(`python -m repro`) that drives the whole loop from one spec."
    ),
    long_description_content_type="text/plain",
    author="SpliDT reproduction authors",
    license="MIT",
    python_requires=">=3.10",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={
        "console_scripts": ["splidt-repro = repro.pipeline.cli:main"],
    },
    extras_require={
        "test": ["pytest>=8", "pytest-benchmark>=5", "hypothesis>=6"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Networking",
    ],
)
