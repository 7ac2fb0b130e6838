"""The mypy strict-ratchet configuration and the py.typed marker.

The container running the tier-1 suite does not ship mypy (CI installs
it for the static-analysis job), so the actual type-check is gated on
the import; the configuration-shape tests always run.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
MYPY_INI = REPO_ROOT / "mypy.ini"

#: Modules promoted to the strict profile; the list only ever grows.
PROMOTED = [
    "mypy-repro.errors",
    "mypy-repro.units",
    "mypy-repro.engine.blas",
    "mypy-repro.api",
    "mypy-repro.api.request",
    "mypy-repro.api.solvers",
    "mypy-repro.api.workbench",
    "mypy-repro.obs.histogram",
    "mypy-repro.reactive",
    "mypy-repro.reactive.*",
    "mypy-repro.service.protocol",
    "mypy-repro.service.endpoint",
    "mypy-repro.floorplan.adjacency",
    "mypy-repro.thermal.builder",
    "mypy-repro.thermal.rc_network",
    "mypy-repro.thermal.resistances",
    "mypy-repro.core.session_model",
    "mypy-repro.core.scheduler",
    "mypy-repro.engine.scenarios",
    "mypy-repro.engine.cache",
]


def load_config() -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    parser.read(MYPY_INI)
    return parser


class TestConfigShape:
    def test_config_exists_and_parses(self):
        assert MYPY_INI.exists()
        assert load_config().has_section("mypy")

    def test_strict_profile_is_on_globally(self):
        config = load_config()
        assert config.getboolean("mypy", "disallow_untyped_defs")
        assert config.getboolean("mypy", "check_untyped_defs")
        assert config.getboolean("mypy", "no_implicit_optional")

    def test_ratchet_ignores_unpromoted_modules(self):
        config = load_config()
        assert config.getboolean("mypy-repro.*", "ignore_errors")

    def test_promoted_modules_are_not_ignored(self):
        config = load_config()
        for section in PROMOTED:
            assert config.has_section(section), section
            assert not config.getboolean(section, "ignore_errors"), section


class TestPyTypedMarker:
    def test_marker_file_is_present(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()

    def test_setup_ships_the_marker(self):
        setup = (REPO_ROOT / "setup.py").read_text()
        assert "py.typed" in setup


class TestMypyRun:
    def test_promoted_modules_are_strict_clean(self):
        api = pytest.importorskip(
            "mypy.api", reason="mypy is a CI-only dependency"
        )
        stdout, stderr, status = api.run(
            [
                "--config-file",
                str(MYPY_INI),
                "-p",
                "repro.api",
                "-p",
                "repro.service",
                "-p",
                "repro.obs",
                "-p",
                "repro.reactive",
                "-m",
                "repro.engine.blas",
                "-m",
                "repro.floorplan.adjacency",
                "-m",
                "repro.thermal.builder",
                "-m",
                "repro.thermal.rc_network",
                "-m",
                "repro.thermal.resistances",
                "-m",
                "repro.core.session_model",
                "-m",
                "repro.core.scheduler",
                "-m",
                "repro.engine.scenarios",
                "-m",
                "repro.engine.cache",
            ]
        )
        assert status == 0, f"mypy reported errors:\n{stdout}\n{stderr}"
