"""Tests for repro.registry: lookup errors, knob schemas, pluggability,
and CLI agreement with registry contents."""

import pytest

from repro import registry
from repro.cli import main
from repro.speculation import make_speculation_policy
from repro.stragglers import make_straggler_model
from repro.stragglers.model import NoStragglerModel, ParetoRedrawStragglerModel
from repro.sweep import RunSpec, WorkloadParams
from repro.workload.generator import FACEBOOK_PROFILE, profile_by_name


TINY = WorkloadParams(
    profile="spark-facebook",
    num_jobs=10,
    utilization=0.6,
    total_slots=40,
    max_phase_tasks=20,
)


# -- unknown-name errors ----------------------------------------------------


def test_unknown_kind_error_names_registry_and_lists_entries():
    with pytest.raises(ValueError) as excinfo:
        RunSpec("bogus-kind", "hopper", TINY)
    message = str(excinfo.value)
    assert "spec kind" in message
    assert "'bogus-kind'" in message
    for kind in ("centralized", "decentralized", "single_job"):
        assert kind in message


def test_unknown_system_error_names_registry_and_lists_entries():
    with pytest.raises(ValueError) as excinfo:
        RunSpec("decentralized", "bogus-system", TINY)
    message = str(excinfo.value)
    assert "decentralized system" in message
    for system in ("sparrow", "sparrow-srpt", "hopper"):
        assert system in message


def test_unknown_speculation_error_lists_entries():
    with pytest.raises(ValueError) as excinfo:
        make_speculation_policy("bogus-speculation")
    message = str(excinfo.value)
    assert "speculation policy" in message
    for name in ("late", "mantri", "grass", "none"):
        assert name in message


def test_unknown_profile_error_lists_entries():
    with pytest.raises(ValueError) as excinfo:
        profile_by_name("bogus-profile")
    message = str(excinfo.value)
    assert "workload profile" in message
    assert "facebook" in message and "bing" in message


def test_unknown_straggler_model_error():
    with pytest.raises(ValueError) as excinfo:
        make_straggler_model("bogus-model")
    message = str(excinfo.value)
    assert "straggler model" in message
    assert "pareto-redraw" in message


def test_unknown_study_error():
    with pytest.raises(ValueError) as excinfo:
        registry.studies().get("bogus-study")
    message = str(excinfo.value)
    assert "study" in message
    assert "fig6" in message


# -- registration rules -----------------------------------------------------


def test_duplicate_registration_raises():
    reg = registry.Registry("test thing")
    reg.register("alpha", object(), description="first")
    with pytest.raises(registry.DuplicateEntryError) as excinfo:
        reg.register("alpha", object(), description="second")
    assert "test thing" in str(excinfo.value)
    assert "alpha" in str(excinfo.value)
    # replace=True is the explicit override path.
    reg.register("alpha", object(), description="third", replace=True)
    assert reg.get("alpha").description == "third"


def test_registry_rejects_bad_names():
    reg = registry.Registry("test thing")
    with pytest.raises(registry.RegistryError):
        reg.register("", object())
    with pytest.raises(registry.RegistryError):
        reg.register(None, object())


def test_unregister_removes_entry():
    reg = registry.Registry("test thing")
    reg.register("alpha", object())
    assert "alpha" in reg
    reg.unregister("alpha")
    assert "alpha" not in reg
    reg.unregister("alpha")  # idempotent


def test_registry_iteration_and_order():
    reg = registry.Registry("test thing")
    reg.register("b", 1)
    reg.register("a", 2)
    assert reg.names() == ("b", "a")  # insertion order, not sorted
    assert list(reg) == ["b", "a"]
    assert len(reg) == 2


# -- knob schemas -----------------------------------------------------------


def test_knob_schema_rejects_wrong_types():
    with pytest.raises(ValueError, match="probe_ratio"):
        RunSpec(
            "decentralized", "hopper", TINY, knobs={"probe_ratio": "fast"}
        )
    with pytest.raises(ValueError, match="with_locality"):
        RunSpec(
            "centralized", "hopper", TINY, knobs={"with_locality": 1}
        )  # int is not a flag
    with pytest.raises(ValueError, match="refusal_threshold"):
        RunSpec(
            "decentralized",
            "hopper",
            TINY,
            knobs={"refusal_threshold": 2.5},
        )
    # int where float is expected is fine
    RunSpec("decentralized", "hopper", TINY, knobs={"probe_ratio": 4})


def test_knob_validator_rejects_out_of_range():
    with pytest.raises(ValueError, match="probe_ratio"):
        RunSpec(
            "decentralized", "hopper", TINY, knobs={"probe_ratio": -1.0}
        )
    with pytest.raises(ValueError, match="epsilon"):
        RunSpec("centralized", "hopper", TINY, knobs={"epsilon": 3.0})
    with pytest.raises(ValueError, match="speculation_mode"):
        RunSpec(
            "centralized",
            "hopper",
            TINY,
            knobs={"speculation_mode": "warp-speed"},
        )


def test_unknown_knob_error_lists_schema():
    with pytest.raises(ValueError) as excinfo:
        RunSpec("decentralized", "hopper", TINY, knobs={"bogus_knob": 1})
    message = str(excinfo.value)
    assert "bogus_knob" in message
    assert "probe_ratio" in message


def test_unknown_registry_name_knob_error_lists_family_members():
    """A knob naming a registry entry must list the registered names of
    that family on rejection, not just echo the bad name."""
    with pytest.raises(registry.KnobError) as excinfo:
        RunSpec(
            "decentralized",
            "hopper",
            TINY,
            knobs={"straggler_model": "bogus"},
        )
    message = str(excinfo.value)
    assert "'bogus'" in message
    for name in registry.STRAGGLER_MODELS.names():
        assert name in message

    with pytest.raises(registry.KnobError) as excinfo:
        RunSpec(
            "centralized",
            "hopper",
            TINY,
            knobs={"blacklist_policy": "bogus"},
        )
    message = str(excinfo.value)
    assert "'bogus'" in message
    for name in registry.BLACKLIST_POLICIES.names():
        assert name in message


def test_knob_choices_track_late_registrations():
    """The choices listing is live: a policy registered after the knob
    schema was built validates (and appears in the error message)."""
    registry.BLACKLIST_POLICIES.register(
        "plugin-policy", lambda num_machines=None, **k: None,
        description="test plugin",
    )
    try:
        spec = RunSpec(
            "decentralized",
            "hopper",
            TINY,
            knobs={"blacklist_policy": "plugin-policy"},
        )
        assert dict(spec.knobs)["blacklist_policy"] == "plugin-policy"
        with pytest.raises(registry.KnobError) as excinfo:
            RunSpec(
                "decentralized",
                "hopper",
                TINY,
                knobs={"blacklist_policy": "bogus"},
            )
        assert "plugin-policy" in str(excinfo.value)
    finally:
        registry.BLACKLIST_POLICIES.unregister("plugin-policy")


def test_blacklist_knobs_are_validated():
    for knobs in (
        {"strike_threshold": 0},
        {"strike_window": 0.0},
        {"eviction_cap": 0.0},
        {"eviction_cap": 1.5},
        {"strike_threshold": 2.5},
    ):
        with pytest.raises(registry.KnobError):
            RunSpec("centralized", "hopper", TINY, knobs=knobs)
    spec = RunSpec(
        "decentralized",
        "hopper",
        TINY,
        knobs={
            "blacklist_policy": "strikes",
            "strike_threshold": 2,
            "strike_window": 5.0,
            "eviction_cap": 0.1,
        },
    )
    assert dict(spec.knobs)["blacklist_policy"] == "strikes"


def test_make_blacklist_policy_factory():
    from repro.cluster.policy import StrikeBlacklistPolicy

    assert registry.make_blacklist_policy("none") is None
    policy = registry.make_blacklist_policy(
        "strikes", num_machines=100, strike_threshold=2, eviction_cap=0.5
    )
    assert isinstance(policy, StrikeBlacklistPolicy)
    assert policy.max_evictions == 50
    assert policy.probation == 0.0
    probation = registry.make_blacklist_policy(
        "strikes-probation", num_machines=100, strike_window=5.0
    )
    assert probation.probation == 20.0  # four evidence windows
    with pytest.raises(registry.KnobError, match="num_machines"):
        registry.make_blacklist_policy("strikes")


def test_straggler_model_knob_is_validated_and_runs():
    with pytest.raises(ValueError, match="straggler_model"):
        RunSpec(
            "decentralized",
            "hopper",
            TINY,
            knobs={"straggler_model": "bogus"},
        )
    spec = RunSpec(
        "decentralized",
        "hopper",
        TINY,
        knobs={"straggler_model": "none"},
    )
    result = spec.execute()
    assert result.num_jobs == TINY.num_jobs


# -- factories --------------------------------------------------------------


def test_make_straggler_model_builds_profile_parameterized_models():
    model = make_straggler_model("pareto-redraw", FACEBOOK_PROFILE)
    assert isinstance(model, ParetoRedrawStragglerModel)
    assert model.beta == FACEBOOK_PROFILE.beta
    assert isinstance(make_straggler_model("none"), NoStragglerModel)


def test_speculation_off_is_alias_of_none():
    from repro.speculation.none import NoSpeculation

    assert isinstance(make_speculation_policy("off"), NoSpeculation)
    assert isinstance(make_speculation_policy("none"), NoSpeculation)


# -- pluggability -----------------------------------------------------------


def test_registered_system_is_usable_end_to_end():
    """A system registered after import is constructible as a RunSpec
    and executable through the harness with no other edits."""
    from repro.centralized.policies import FairPolicy

    registry.SYSTEMS.register(
        "centralized",
        "test-fair-clone",
        lambda epsilon: FairPolicy(),
        description="test-only clone of the fair policy",
    )
    try:
        spec = RunSpec("centralized", "test-fair-clone", TINY)
        clone = spec.execute()
        reference = RunSpec("centralized", "fair", TINY).execute()
        assert clone.jobs == reference.jobs
    finally:
        registry.SYSTEMS.unregister("centralized", "test-fair-clone")
    with pytest.raises(ValueError):
        RunSpec("centralized", "test-fair-clone", TINY)


def test_registered_speculation_policy_is_resolvable():
    from repro.speculation.none import NoSpeculation

    registry.SPECULATION_POLICIES.register(
        "test-noop", lambda **kwargs: NoSpeculation()
    )
    try:
        assert isinstance(
            make_speculation_policy("test-noop"), NoSpeculation
        )
        spec = RunSpec(
            "decentralized", "hopper", TINY, speculation="test-noop"
        )
        assert spec.speculation == "test-noop"
    finally:
        registry.SPECULATION_POLICIES.unregister("test-noop")


def test_registered_profile_is_resolvable_by_workload_params():
    from repro.workload.generator import WorkloadProfile

    profile = WorkloadProfile(
        name="test-profile",
        beta=1.5,
        task_scale=1.0,
        job_size=FACEBOOK_PROFILE.job_size,
        dag_length=FACEBOOK_PROFILE.dag_length,
    )
    registry.WORKLOAD_PROFILES.register("test-profile", profile)
    try:
        assert profile_by_name("test-profile") is profile
        params = WorkloadParams(profile="test-profile", num_jobs=5)
        assert params.to_workload_spec().profile is profile
    finally:
        registry.WORKLOAD_PROFILES.unregister("test-profile")


# -- CLI agreement ----------------------------------------------------------


def _list_section(out, title):
    """The names listed under one ``repro list`` section heading."""
    lines = out[out.index(f"\n{title}") :].split("\n")[2:]
    return {line.split()[0] for line in lines[: lines.index("")]}


def test_repro_list_output_matches_registry_contents(capsys):
    from repro.serving.arrivals import ARRIVAL_PROCESSES

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for kind_entry in registry.SPEC_KINDS.entries():
        kind = kind_entry.factory
        assert kind.name in out
        for entry in registry.SYSTEMS.entries(kind.name):
            assert entry.name in out
        for knob in kind.knobs:
            assert knob in out
    for name in registry.SPECULATION_POLICIES.names():
        assert name in out
    for name in registry.STRAGGLER_MODELS.names():
        assert name in out
    for name in registry.WORKLOAD_PROFILES.names():
        assert name in out
    for name in registry.studies().names():
        assert name in out
    for title, family in (
        ("Blacklist policies", registry.BLACKLIST_POLICIES),
        ("Autoscaler policies", registry.AUTOSCALER_POLICIES),
        ("Arrival processes", ARRIVAL_PROCESSES),
    ):
        assert _list_section(out, title) == set(family.names())


# -- spec-kind knob schemas -------------------------------------------------

_BLACKLIST_SCHEMA = [
    ("blacklist_policy", "str", "none"),
    ("strike_threshold", "int", 3),
    ("strike_window", "float", 10.0),
    ("eviction_cap", "float", 0.2),
]
_AUTOSCALER_SCHEMA = [
    ("autoscaler", "str", "none"),
    ("resize_schedule", "str", None),
    ("scale_interval", "float", 5.0),
    ("scale_up_threshold", "float", 0.85),
    ("scale_down_threshold", "float", 0.3),
    ("scale_step", "int", 1),
    ("min_machines", "int", 1),
]
_CENTRALIZED_SCHEMA = [
    ("epsilon", "float", 0.1),
    ("locality_k_percent", "float", 3.0),
    ("speculation_mode", "str", None),
    ("with_locality", "bool", False),
    ("slots_per_machine", "int", 4),
    ("straggler_model", "str", "pareto-redraw"),
    *_BLACKLIST_SCHEMA,
    *_AUTOSCALER_SCHEMA,
]

#: Every kind's (name, type, default) knob table, in schema order.
KNOB_SCHEMAS = {
    "centralized": _CENTRALIZED_SCHEMA,
    "decentralized": [
        ("epsilon", "float", None),
        ("probe_ratio", "float", None),
        ("refusal_threshold", "int", 2),
        ("num_schedulers", "int", 10),
        ("until", "float", None),
        ("power_of_d", "int", 1),
        ("straggler_model", "str", "pareto-redraw"),
        *_BLACKLIST_SCHEMA,
        *_AUTOSCALER_SCHEMA,
    ],
    "batch": [
        *_CENTRALIZED_SCHEMA,
        ("round_interval", "float", 0.5),
        ("until", "float", None),
    ],
    "single_job": [
        ("beta", "float", 1.4),
        ("num_tasks", "int", 200),
        ("normalized_slots", "float", 1.0),
    ],
    "serving": [
        ("arrival_process", "str", "poisson"),
        ("warmup", "float", 20.0),
        ("horizon", "float", 120.0),
        ("cooldown", "float", 20.0),
        ("window", "float", 20.0),
        ("heavy_tail", "float", 0.0),
        ("straggler_model", "str", "pareto-redraw"),
        *_AUTOSCALER_SCHEMA,
    ],
}


def test_spec_kind_knob_schemas_are_pinned():
    assert list(registry.SPEC_KINDS.names()) == list(KNOB_SCHEMAS)
    for name, expected in KNOB_SCHEMAS.items():
        knobs = registry.spec_kind(name).knobs.values()
        table = [
            (knob.name, registry.type_label(knob.type), knob.default)
            for knob in knobs
        ]
        assert table == expected, name
    # Sharing the `until` knob must not leak it into the centralized kind.
    with pytest.raises(registry.KnobError, match="until"):
        RunSpec("centralized", "hopper", TINY, knobs={"until": 5.0})


# -- plane-tagged systems table ---------------------------------------------


def test_systems_table_filters_by_plane():
    """A kind's systems are the SYSTEMS entries on its plane."""
    for plane, names in (
        ("centralized", ["fair", "srpt", "hopper"]),
        ("batch", ["fair", "srpt", "hopper"]),
        ("single_job", ["hopper"]),
        ("serving", ["hopper", "sparrow-srpt", "hopper-c", "srpt-c"]),
    ):
        entries = registry.SYSTEMS.entries(plane)
        assert [e.name for e in entries] == names
        assert {e.plane for e in entries} == {plane}
    with pytest.raises(registry.UnknownEntryError, match="scheduler plane"):
        registry.SYSTEMS.entries("bogus-plane")


def test_systems_table_entries_carry_planes():
    entries = registry.SYSTEMS.entries()
    by_qualified = {entry.qualified: entry for entry in entries}
    assert "centralized/hopper" in by_qualified
    assert "decentralized/sparrow-lb" in by_qualified
    assert "decentralized/sparrow-po2" in by_qualified
    assert "batch/hopper" in by_qualified
    for plane in ("centralized", "decentralized", "batch"):
        tagged = [e for e in entries if e.plane == plane]
        assert tagged == list(registry.SYSTEMS.entries(plane))


def test_systems_table_get_resolves_qualified_and_bare_names():
    entry = registry.SYSTEMS.get("batch/hopper")
    assert entry.plane == "batch"
    assert entry.name == "hopper"
    assert registry.SYSTEMS.get("hopper", plane="batch").qualified == (
        "batch/hopper"
    )
    # sparrow-lb exists on exactly one plane -> bare name is enough.
    assert registry.SYSTEMS.get("sparrow-lb").plane == "decentralized"


def test_systems_table_ambiguous_bare_name_lists_candidates():
    with pytest.raises(registry.RegistryError) as excinfo:
        registry.SYSTEMS.get("hopper")
    message = str(excinfo.value)
    assert "centralized/hopper" in message
    assert "batch/hopper" in message


def test_systems_table_unknown_names_raise():
    with pytest.raises(registry.UnknownEntryError):
        registry.SYSTEMS.get("bogus-system")
    with pytest.raises(registry.UnknownEntryError):
        registry.SYSTEMS.get("bogus-plane/hopper")


def test_systems_table_register_through_table_is_visible_in_view():
    registry.SYSTEMS.register(
        "batch", "test-system", object(), description="temp"
    )
    try:
        batch = registry.SYSTEMS.entries("batch")
        assert "test-system" in [entry.name for entry in batch]
        assert registry.SYSTEMS.get("batch/test-system").description == "temp"
        with pytest.raises(registry.DuplicateEntryError):
            registry.SYSTEMS.register("batch", "test-system", object())
    finally:
        registry.SYSTEMS.unregister("batch", "test-system")
    with pytest.raises(registry.UnknownEntryError):
        registry.SYSTEMS.get("batch/test-system")


def test_repro_plane_info_resolves_qualified_system(capsys):
    assert main(["plane", "info", "batch/hopper"]) == 0
    out = capsys.readouterr().out
    assert "batch" in out
    assert "hopper" in out
    assert "round_interval" in out


def test_repro_plane_info_rejects_ambiguous_bare_name(capsys):
    assert main(["plane", "info", "hopper"]) == 2
    err = capsys.readouterr().err
    assert "several planes" in err
