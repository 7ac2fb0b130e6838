"""Setuptools packaging for the ``repro`` library.

The reference environment has no ``wheel`` package, so PEP 660 editable
installs (``pip install -e .``) cannot build; this legacy ``setup.py``
lets both ``pip install -e . --no-build-isolation`` and
``python setup.py develop`` work offline, and installs the console
commands::

    repro           # umbrella command: `repro schedule`, `repro batch`
    repro-schedule  # alias for `repro schedule`

Both start in ``repro.__main__``, as ``python -m repro`` does, so all
three run their BLAS on one thread.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Rapid Generation of Thermal-Safe Test Schedules' "
        "(DATE 2005) with a batch scheduling engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "repro=repro.__main__:main",
            "repro-schedule=repro.__main__:schedule_main",
        ]
    },
)
