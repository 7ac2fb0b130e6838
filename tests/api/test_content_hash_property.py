"""Property tests for the cache-key contract of ``content_hash()``.

The scheduling service's answer cache, in-flight dedup, archive
provenance and the wire protocol all key on
:meth:`~repro.api.ScheduleRequest.content_hash`.  That only works if
the digest is a function of the request's *content* alone:

* insensitive to params-dict insertion order,
* insensitive to JSON formatting (whitespace, key order, float
  notation) of a round-tripped request,
* stable across processes and interpreter instances (no dependence on
  ``PYTHONHASHSEED``, ``id()``, or in-process registries),
* different whenever any semantically relevant field differs.

Randomised with hypothesis; the cross-process part runs a fixed sample
through the engine's *process* backend as a regression guard (the same
pickle-then-hash path the service's process workers exercise).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScheduleRequest, request_from_dict, request_to_dict
from repro.engine import ScenarioSpec, create_backend

# -- request generation ----------------------------------------------------------------

_PARAM_VALUES = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    st.text(min_size=0, max_size=12),
)

_PARAMS = st.dictionaries(
    st.text(min_size=1, max_size=12), _PARAM_VALUES, max_size=4
)

_LIMITS = st.one_of(
    st.tuples(
        st.floats(min_value=40.0, max_value=200.0, allow_nan=False),
        st.none(),
    ),
    st.tuples(
        st.none(),
        st.floats(min_value=1.01, max_value=3.0, allow_nan=False),
    ),
)

_STCL = st.one_of(
    st.tuples(st.floats(min_value=1.0, max_value=100.0), st.none()),
    st.tuples(st.none(), st.floats(min_value=0.5, max_value=4.0)),
    st.tuples(st.none(), st.none()),
)


@st.composite
def requests(draw) -> ScheduleRequest:
    """A random valid ScheduleRequest (solver existence not required —
    solver names are validated at solve time, not construction)."""
    tl_c, tl_headroom = draw(_LIMITS)
    stcl, stcl_headroom = draw(_STCL)
    if draw(st.booleans()):
        soc = draw(
            st.sampled_from(["alpha15", "hypothetical7", "worked_example6"])
        )
        scenario = None
    else:
        soc = None
        scenario = ScenarioSpec(
            kind=draw(st.sampled_from(["grid", "slicing"])),
            rows=draw(st.integers(min_value=1, max_value=4)),
            cols=draw(st.integers(min_value=1, max_value=4)),
            n_blocks=draw(st.integers(min_value=2, max_value=8)),
            floorplan_seed=draw(st.integers(min_value=0, max_value=99)),
            power_seed=draw(st.integers(min_value=0, max_value=99)),
            power_scale=draw(st.floats(min_value=0.5, max_value=2.0)),
        )
    return ScheduleRequest(
        soc=soc,
        scenario=scenario,
        tl_c=tl_c,
        tl_headroom=tl_headroom,
        stcl=stcl,
        stcl_headroom=stcl_headroom,
        solver=draw(st.sampled_from(["thermal_aware", "sequential", "custom_x"])),
        params=draw(_PARAMS),
        include_vertical=draw(st.booleans()),
        stc_scale=draw(st.one_of(st.none(), st.floats(1.0, 3.0))),
    )


# -- in-process properties -------------------------------------------------------------


class TestHashIsContentOnly:
    @settings(max_examples=60, deadline=None)
    @given(requests())
    def test_params_dict_insertion_order_is_irrelevant(self, request_):
        reordered = ScheduleRequest(
            soc=request_.soc,
            scenario=request_.scenario,
            tl_c=request_.tl_c,
            tl_headroom=request_.tl_headroom,
            stcl=request_.stcl,
            stcl_headroom=request_.stcl_headroom,
            solver=request_.solver,
            params=dict(reversed(list(request_.params.items()))),
            include_vertical=request_.include_vertical,
            stc_scale=request_.stc_scale,
        )
        assert reordered.content_hash() == request_.content_hash()

    @settings(max_examples=60, deadline=None)
    @given(requests())
    def test_json_formatting_is_irrelevant(self, request_):
        """Pretty-printing, key shuffling and ASCII escaping all parse
        back to the same hash: the digest is of the *content*, not of
        any particular serialisation."""
        payload = request_to_dict(request_)
        wire_variants = [
            json.dumps(payload),
            json.dumps(payload, indent=2, sort_keys=True),
            json.dumps(
                {k: payload[k] for k in reversed(list(payload))},
                separators=(",", ":"),
                ensure_ascii=True,
            ),
        ]
        hashes = {
            request_from_dict(json.loads(text)).content_hash()
            for text in wire_variants
        }
        assert hashes == {request_.content_hash()}

    @settings(max_examples=60, deadline=None)
    @given(requests())
    def test_roundtrip_preserves_hash(self, request_):
        clone = request_from_dict(request_to_dict(request_))
        assert clone == request_
        assert clone.content_hash() == request_.content_hash()

    @settings(max_examples=40, deadline=None)
    @given(requests(), requests())
    def test_distinct_content_means_distinct_hash(self, a, b):
        """The converse direction: hash collision implies equality (for
        randomly drawn pairs — a full collision proof is SHA-256's job)."""
        if a.content_hash() == b.content_hash():
            assert a == b

    @settings(max_examples=60, deadline=None)
    @given(requests())
    def test_float_value_not_formatting_matters(self, request_):
        """1e2 and 100.0 are the same content; 100.0 and 100.5 are not."""
        if request_.tl_c is None:
            return
        same = ScheduleRequest(
            soc=request_.soc,
            scenario=request_.scenario,
            tl_c=float(f"{request_.tl_c!r}"),  # repr round-trip: same value
            stcl=request_.stcl,
            stcl_headroom=request_.stcl_headroom,
            solver=request_.solver,
            params=request_.params,
            include_vertical=request_.include_vertical,
            stc_scale=request_.stc_scale,
        )
        assert same.content_hash() == request_.content_hash()
        different = ScheduleRequest(
            soc=request_.soc,
            scenario=request_.scenario,
            tl_c=request_.tl_c + 0.5,
            stcl=request_.stcl,
            stcl_headroom=request_.stcl_headroom,
            solver=request_.solver,
            params=request_.params,
            include_vertical=request_.include_vertical,
            stc_scale=request_.stc_scale,
        )
        assert different.content_hash() != request_.content_hash()


def canonical_digest(request: ScheduleRequest) -> str:
    """The digest ``content_hash()`` is specified to return, computed afresh."""
    payload = request_to_dict(request)
    del payload["schema_version"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class TestHashIsComputedOnce:
    """A request keeps its digest; copies and replacements stay correct."""

    @settings(max_examples=40, deadline=None)
    @given(requests(), st.booleans())
    def test_copies_hash_like_the_original(self, request_, hash_first):
        if hash_first:
            request_.content_hash()
        copies = [
            pickle.loads(pickle.dumps(request_)),
            copy.deepcopy(request_),
            copy.copy(request_),
        ]
        expected = canonical_digest(request_)
        assert request_.content_hash() == expected
        for clone in copies:
            assert clone.content_hash() == expected
            assert clone == request_
            assert hash(clone) == hash(request_)

    @settings(max_examples=40, deadline=None)
    @given(requests())
    def test_replace_hashes_the_new_content(self, request_):
        request_.content_hash()
        flipped = dataclasses.replace(
            request_, include_vertical=not request_.include_vertical
        )
        assert flipped.content_hash() == canonical_digest(flipped)
        assert flipped.content_hash() != request_.content_hash()
        assert dataclasses.replace(request_).content_hash() == request_.content_hash()

    @settings(max_examples=40, deadline=None)
    @given(requests())
    def test_equality_and_hash_ignore_the_kept_digest(self, request_):
        twin = request_from_dict(request_to_dict(request_))
        before = hash(request_)
        request_.content_hash()
        assert request_ == twin
        assert hash(request_) == hash(twin) == before
        assert repr(request_) == repr(twin)
        assert dataclasses.asdict(request_) == dataclasses.asdict(twin)


# -- cross-process stability -----------------------------------------------------------


def _hash_request(request: ScheduleRequest) -> str:
    """Module-level so the process backend can pickle it."""
    return request.content_hash()


FIXED_SAMPLE = [
    ScheduleRequest(soc="alpha15", tl_c=165.0, stcl=60.0),
    ScheduleRequest(
        soc="worked_example6",
        tl_c=80.0,
        solver="power_constrained",
        params={"power_limit_w": 25.0, "zeta": True, "name": "x"},
    ),
    ScheduleRequest(
        scenario=ScenarioSpec(kind="grid", rows=2, cols=3, power_scale=1.25),
        tl_headroom=1.3,
        stcl_headroom=2.0,
        include_vertical=True,
    ),
    ScheduleRequest(
        soc="hypothetical7", tl_c=120.5, solver="sequential", stc_scale=1.5
    ),
]


class TestCrossProcessStability:
    def test_process_backend_workers_agree_with_the_parent(self):
        """The exact path service process-workers take: pickle the
        request over, hash it there — the dedup/cache key must match."""
        local = [_hash_request(request) for request in FIXED_SAMPLE]
        backend = create_backend("process", max_workers=2)
        remote = backend.map(_hash_request, FIXED_SAMPLE)
        assert remote == local

    def test_fresh_interpreter_agrees_over_the_wire_form(self):
        """A brand-new interpreter (own hash randomisation seed) hashes
        the JSONL wire form of each request to the same digest."""
        payload = json.dumps(
            [request_to_dict(request) for request in FIXED_SAMPLE]
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.api import request_from_dict; "
            "print(json.dumps([request_from_dict(r).content_hash() "
            "for r in json.loads(sys.stdin.read())]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, src],
            input=payload,
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout) == [
            _hash_request(request) for request in FIXED_SAMPLE
        ]
