"""Golden-digest equivalence tests for the optimized hot path.

The scale-out work (tuple-keyed engine heap, tombstone compaction,
batched control-message delivery, indexed request purging, incremental
speculation-rate bookkeeping, cached alpha/median estimators) is only
admissible because it is *semantics-preserving*: every study must
reproduce the seed engine's :class:`SimulationResult`s byte-for-byte.

The digests below were captured on the pre-optimization engine (commit
``1b6c0ec``) by serializing every result of each registered study's
quick grid at its first default seed and hashing the canonical JSON.
Any drift — one extra RNG draw, one reordered event, one changed float
operation — changes a digest and fails the matching test.

``scale`` (born in this PR) is pinned at its first-ever output, and the
RunSpec content digests of the new scale-study cells are pinned so the
on-disk result cache stays addressable.
"""

import hashlib
import json

import pytest

from repro import registry
from repro.metrics.serialize import result_to_dict
from repro.sweep import ResultCache, RunSpec, WorkloadParams
from repro.sweep.runner import SweepRunner

#: study name -> sha256 of the canonical JSON of its quick-grid results
#: at the study's first default seed (captured on the seed engine;
#: fig7/fig8a share a digest because their quick grids coincide).
GOLDEN_STUDY_DIGESTS = {
    "fig3": "d1b1af574f738dd3c5918c527d51b3b677cad5ad96f84acb7c21781c646c9a33",
    "fig5": "be9fbe69633df9dde979bb914713b02bc239cea4cc391a45889d94fac927f1d0",
    "fig5a": "254a42109cbc420421c82ba9567e568447087c8ab3d0ca2300965ab10ed27385",
    "fig5b": "bdf3af695c88efe81f6aa38e47e4092a57f1da005f2f93ac40efa5532975962f",
    "fig6": "6a4da648d374089edbc5e79b572320b1b330020910523364da481b4261a12a67",
    "fig7": "ccb3a964625ffd9c0c0ffaf71da692197d01fae130a8dd38afc60fdc1f121e94",
    "fig8a": "ccb3a964625ffd9c0c0ffaf71da692197d01fae130a8dd38afc60fdc1f121e94",
    "fig8b": "35864a6c89ca373ca3e862a3e1556feb134c91e275d33c8e11ead4b7effda994",
    "fig9": "e43470923382d41a93e3f4b57d3d7b46b0f15449dd0dc55e319721535d926459",
    "fig10": "2f24735ec5e64cccace70b41e4da2ff412161bc7b9dba6d7c6d9046202fe2368",
    "fig11": "d47b0b39891a6dafc7d01a46320e98baaa729678f75c29b7a1ad935501b5d5f4",
    "fig12": "cd388659c299693d4262425bb77ed0f91a5594b721b16c1b98c36126ced5c067",
    "fig13": "11e2da345712de2b4e129baea8b1dfde5bfd9f66a3bedbd1d921e41dfaccaaf8",
    "headline": "20cf6ac1b300cecd0db1d3d428abf97bf4126a8525af6787b0897b883b9c6f3b",
    # Born in PR 3: pinned at its first output (not a seed-engine
    # digest — there was no scale study to run on the seed engine).
    # Its quick grid predates the centralized axis and is unchanged by
    # it, so this digest also proves the shared-runtime rebuild of the
    # simulators is bit-identical.
    "scale": "e463242662203ec805f73087544335415cee37234cea640c4a7305763f4dbc2a",
    # Born in PR 4 (blacklist study): pinned at its first output.
    "blacklist": (
        "026309fa30580c22d0345d4b9a6236487cbda3d7f3521610c8112fb2c8418456"
    ),
    # Born in PR 5 (strike-driven eviction): pinned at its first output.
    # The eviction-off cells coincide with runs of the policy-free
    # simulators, so this digest also pins the "policy wiring is inert
    # by default" property inside a study that exercises eviction.
    "blacklist_policy": (
        "c87703598e96dc9543a93d15f10c442fbef95c6e5957f2b895d8952ebf3d7842"
    ),
    # Born in PR 7 (open-loop serving regime): pinned at its first
    # output. Serving results carry the schema-3 "serving" section, so
    # this digest also freezes the windowed-metrics layout and the
    # arrival-stream entropy consumption on both planes.
    "steady_state": (
        "0723414c5d0544e45d7b8d6bd2d7965b23a6998a8efc3044adeb99e19e755aca"
    ),
    # Born in PR 8 (batch-mode plane): pinned at its first output. The
    # study crosses the batch plane's round intervals against the
    # per-arrival centralized baseline, so this digest freezes both the
    # round/buffer event ordering and the fact that the baseline cells
    # run the stock centralized entropy stream.
    "batch_rounds": (
        "a01c91fd15f9b2e5ae3e7583ea36f5336ec93a18892aee2aefd0b95a658d6332"
    ),
    # Born in PR 10 (elastic clusters): pinned at its first output. The
    # study crosses mid-run resize amplitude against all three planes,
    # so this digest freezes the resize event ordering, the kill/requeue
    # path on removal, and the membership-delta bookkeeping on growth.
    "elastic": (
        "1f6f0d05632c7b1c84e6c61c9471cdbf5e8c2e357dfb18e7d1f3eb3ad49f527a"
    ),
}


def study_results_digest(name: str, runner: SweepRunner) -> str:
    """Canonical digest of a study's quick grid at its first seed."""
    study = registry.studies().get(name).factory
    result = study.run(seeds=(study.seeds[0],), runner=runner, quick=True)
    payload = json.dumps(
        [
            result_to_dict(r)
            for per_cell in result.results
            for r in per_cell
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_every_registered_study_is_pinned():
    """A new study must add its digest here the day it is born."""
    assert set(registry.studies().names()) == set(GOLDEN_STUDY_DIGESTS)


@pytest.fixture(scope="module")
def shared_runner(tmp_path_factory):
    """One cached runner for the module: the figure digests below replay
    the same quick grids as the study digests, so they hit its cache."""
    return SweepRunner(
        parallel=False, cache=ResultCache(root=tmp_path_factory.mktemp("cache"))
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_STUDY_DIGESTS))
def test_study_results_match_seed_engine(name, shared_runner):
    assert study_results_digest(name, shared_runner) == GOLDEN_STUDY_DIGESTS[name]


#: figure name -> sha256 of ``repr(study.figure(quick=True))``: the
#: reduced data every paper figure prints, captured before the figure
#: functions became study reducers (the oracle for that move).
GOLDEN_FIGURE_DIGESTS = {
    "fig3": "d005619f2144a5f8e56883830c3817de30f759a5977c90964125044e2e0a86f0",
    "fig5a": "51f1d94b1b8be350d80891d990b881dfdc55b7198c71c31f1710957a6e16310b",
    "fig5b": "e913035a462967554943ef84e34152d441acaf4efadc0cb16765181a14307e9a",
    "fig6": "db47ccf630de518194897a805a4e947bea2b590d2a239b598433f9ac171254e1",
    "fig7": "bba58b5910411601aad01561aa6b9932f441e8b2332961ce0e24b3b9628634c9",
    "fig8a": "f622756976cdde0282a0d90a0ac138f46fa02f9418cdafc95ee5004aea183c53",
    "fig8b": "2b731fadc5698490fd545c1d0d7efa58b89cb16101bd0cf4e96c5591a49d9a40",
    "fig9": "c3553cf9d741f9efb0e92d90109f62a8a613da4dce58c6c7e2340a0afa442f3d",
    "fig10": "c5e9b35223bf9fb0d2c1e30664fce1a38d59001040b5e435a28fb95e093a3d40",
    "fig11": "de5b018287f4f52832f4a1658258415e017f55365f6ffb9449edcf6bbbcba4c6",
    "fig12": "d8eda1936cfd9b53ff1e18c0cc8e6d40f21982583a83ed1d6a9fad2cc0757dee",
    "fig13": "a3e2e8026e2451b6edff51e4e2b5f1d39827e8d4d947af1be173e72510419f7b",
    "headline": "da8d2b77afe22f51db0e0e24bb29c43771443d9b65b935b79192e8f5807e4d1e",
}


def test_every_figure_is_pinned():
    """A study that renders a figure must pin its reduced value here."""
    figures = {
        name
        for name in registry.studies().names()
        if registry.STUDIES.get(name).factory.render is not None
    }
    assert figures == set(GOLDEN_FIGURE_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_FIGURE_DIGESTS))
def test_figure_values_are_pinned(name, shared_runner):
    study = registry.studies().get(name).factory
    value = study.figure(quick=True, runner=shared_runner)
    digest = hashlib.sha256(repr(value).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_FIGURE_DIGESTS[name]


def test_scale_cell_spec_digest_is_pinned():
    """Scale-study cells are cache keys from day one; pin one."""
    spec = RunSpec(
        "decentralized",
        "hopper",
        WorkloadParams(
            profile="spark-facebook",
            num_jobs=150,
            utilization=0.6,
            total_slots=10000,
        ),
        knobs={"probe_ratio": 4.0},
    )
    assert spec.digest() == (
        "b9e48e2eaf4764e6d62142d1f22d382d54db27b3a500db462fbc995f9d176f94"
    )


def test_scale_centralized_cell_spec_digest_is_pinned():
    """The centralized scale axis (born with the shared-runtime rebuild)
    is cache-addressed from day one; pin its 10k-slot cell."""
    spec = RunSpec(
        "centralized",
        "hopper",
        WorkloadParams(
            profile="spark-facebook",
            num_jobs=150,
            utilization=0.6,
            total_slots=10000,
        ),
    )
    assert spec.digest() == (
        "1d6946244bb6cf1f96c9ab92ab492a9ac254d6a78323882e6e59e56640b3f5e7"
    )


#: study name -> sha256 over the sorted RunSpec content digests of the
#: study's *centralized* quick-grid cells at its first seed. These are
#: the on-disk cache keys of every centralized study cell: the rebuild
#: of the centralized simulator on the shared runtime core must not
#: shift any of them (results are covered by the study digests above).
GOLDEN_CENTRALIZED_CELL_SPEC_DIGESTS = {
    "batch_rounds": (
        "679103e7ef6960ff289896982cd0f6503d928872af2bd0124b7ec2f539b351dd"
    ),
    "blacklist": "a5379f2aedfb33f6645c4bf1a1b479b96860a833b17de2a58a45a9d9a6858d5a",
    "blacklist_policy": (
        "7df91627788687e8039f47c8af67580a358115097aaf1f315745bd91be942495"
    ),
    "elastic": (
        "7fbbe121963264765506936bb1b7f9a1a83a1084918c3771d17207fa17d4b26a"
    ),
    "fig12": "450224f405c8d86ac81a06d1f366f395e11885ab58bfa7908669ba7f52971d27",
    "fig13": "45153b1fe23ce85bcf404a63343ee9d4a4fd1c44ab8dc1a322f82893d759f4e2",
    "fig5": "397af2530efd1bb7e3e1e78267bb8cff72611deae05f7e495f6be7edef719540",
    "fig5a": "8cad4f6088eabe395d25c1cb373c9ced3a1f8d40226897b0431640ab9c1e5a86",
    "fig5b": "8cad4f6088eabe395d25c1cb373c9ced3a1f8d40226897b0431640ab9c1e5a86",
    "headline": "92b09f9bea7139bbef8524e7f67d94e75e3084f34949549dfe1c9e7546b3d1b2",
}


def _centralized_cell_spec_digest(name: str) -> str:
    study = registry.studies().get(name).factory
    digests = sorted(
        spec.digest()
        for c in study.cells(quick=True)
        for spec in (c.make_spec(study.seeds[0]),)
        if spec.kind == "centralized"
    )
    payload = json.dumps(digests)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_every_study_with_centralized_cells_is_pinned():
    """A study that gains (or loses) centralized cells must update the
    pin table — centralized cells are cache keys like any other."""
    with_centralized = {
        name
        for name in registry.studies().names()
        for study in (registry.STUDIES.get(name).factory,)
        if any(
            c.make_spec(study.seeds[0]).kind == "centralized"
            for c in study.cells(quick=True)
        )
    }
    assert with_centralized == set(GOLDEN_CENTRALIZED_CELL_SPEC_DIGESTS)


@pytest.mark.parametrize(
    "name", sorted(GOLDEN_CENTRALIZED_CELL_SPEC_DIGESTS)
)
def test_centralized_cell_spec_digests_match(name):
    assert (
        _centralized_cell_spec_digest(name)
        == GOLDEN_CENTRALIZED_CELL_SPEC_DIGESTS[name]
    )


#: Seeds every cell is reseeded with for :data:`GOLDEN_CELL_SPEC_DIGESTS`.
CELL_SPEC_SEEDS = (0, 1, 7, 42, 43)

#: study name -> sha256 over both grids (full, then quick) of the study:
#: each cell's labels plus ``make_spec(s).digest()`` for every seed in
#: :data:`CELL_SPEC_SEEDS`. Captured while every cell was still a
#: hand-written ``seed -> RunSpec`` closure, so it pins that replacing
#: them with reseeded templates keeps every cache key and grid order.
GOLDEN_CELL_SPEC_DIGESTS = {
    "batch_rounds": "4f028d7ed6c7819b9396db6e846cc9df6158bb7f3dc6a7fcd989215129a72f47",
    "blacklist": "37571eeea68953dfb7579af7c781d4d2f10c3e5348e53692d33d22f4b5d26d02",
    "blacklist_policy": (
        "5471692646a41f7defd082ab0a4d9c3776d61d9ed1be89aa910b0d8b96ffab69"
    ),
    "elastic": "a095440d1a2da2405a44675bbe7769c20ddd7533a37b1e99b9d261c56e938555",
    "fig10": "dbdc10fa23a32f3d8c88539a0cd7b3b4a59965e8bf922e0c73a6f345a5bebad9",
    "fig11": "4139e1c149b031d14cd5fdb9f0003dcc7b2ea93cee4290c8a06d0168abe2d349",
    "fig12": "b7a74404c87d7617788e3a6f2a14587620510c69848d250dde499444fc485c68",
    "fig13": "1077a31b1c8218e4bc5f2f0a40af97b152ec18b5b6f76f7326c4ac30c47217c8",
    "fig3": "0ee1e847f46f07162d182485b0bcdfd70e59e9eb553a366975a2df9f5b9c872b",
    "fig5": "cbebb9f09b750e46bbba779b94399cdb5687dff2bebe17801a61eb18f7cde7c1",
    "fig5a": "3a076a161a808594489d120db316cfb4ed4147c2c2fa9664247013f87b6729fd",
    "fig5b": "e0392f6bc61c903c150d5f6f38892bbf2bec6cabab58e0079dbbb687603c13fd",
    "fig6": "b3c0de6b51c1d52c6939e9051888461accaeaccfea8aeee821816b6b50fd583f",
    "fig7": "af91e204802e78419a3eba7e357757d77db819eb12f6e8d110839f4d0c883aae",
    # fig7's default profile is facebook, whose Spark variant is fig8a's.
    "fig8a": "af91e204802e78419a3eba7e357757d77db819eb12f6e8d110839f4d0c883aae",
    "fig8b": "b8813425adf0a4cd872a0950d38f53ba2162517a39fd585907354b85ca97c40d",
    "fig9": "63d545040784c2e8761d4a35d660d3c23b33fcccacaa4f4580e623e170eb0c0c",
    "headline": "31e4b0c97ef57a949748d84ef125e2806683e9865f971b0a67d75420881b11bc",
    "scale": "e9efbb369ff5f940074439f840d71c3e1d53f6d8d94a019faf084de6ffbb059a",
    "steady_state": "da16e293e0b857780b237495443bb349888589198397d65c8bc7275c35d3d174",
}


def _cell_spec_digest(name: str) -> str:
    study = registry.studies().get(name).factory
    payload = json.dumps(
        [
            [c.labels, [c.make_spec(s).digest() for s in CELL_SPEC_SEEDS]]
            for quick in (False, True)
            for c in study.cells(quick=quick)
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_every_study_pins_its_cell_specs():
    assert set(registry.studies().names()) == set(GOLDEN_CELL_SPEC_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_CELL_SPEC_DIGESTS))
def test_cell_spec_digests_match(name):
    assert _cell_spec_digest(name) == GOLDEN_CELL_SPEC_DIGESTS[name]


def _seedless(spec: RunSpec) -> dict:
    data = spec.to_dict()
    if spec.kind == "single_job":
        del data["run_seed"]
    else:
        del data["workload"]["seed"]
    return data


@pytest.mark.parametrize("name", sorted(GOLDEN_CELL_SPEC_DIGESTS))
def test_study_seed_only_moves_the_seed_field(name):
    """A study seed lands in ``workload.seed`` (``run_seed`` for
    ``single_job``, where it is a repetition index) and nowhere else."""
    study = registry.studies().get(name).factory
    for quick in (False, True):
        for c in study.cells(quick=quick):
            a, b = c.make_spec(1), c.make_spec(43)
            assert _seedless(a) == _seedless(b), c.labels
            if a.kind == "single_job":
                assert (a.run_seed, b.run_seed) == (1, 43), c.labels
            else:
                assert (a.workload.seed, b.workload.seed) == (1, 43), c.labels


def _result_payload(results) -> str:
    return json.dumps(
        [result_to_dict(r) for r in results],
        sort_keys=True,
        separators=(",", ":"),
    )


#: sha256 of one decentralized replay that ranks probe candidates by load
#: (``power_of_d=2``) while strike eviction and four scheduled resizes
#: (14 workers retired, 16 added) reshape the probe pool under it.
GOLDEN_POWER_OF_D_DIGEST = (
    "3f73b301db6601547e697ff3c8d815631d28bfaf90d40291f2b566b00c6f352d"
)


def test_power_of_d_two_with_evictions_and_resizes_is_pinned():
    spec = RunSpec(
        "decentralized",
        "hopper",
        WorkloadParams(
            profile="facebook", num_jobs=30, utilization=0.7,
            total_slots=80, seed=3,
        ),
        knobs={
            "power_of_d": 2,
            "straggler_model": "machine-correlated",
            "blacklist_policy": "strikes",
            "strike_threshold": 2,
            "autoscaler": "schedule",
            "resize_schedule": "2:-6,5:+10,9:-8,14:+6",
        },
    )
    result = spec.execute()
    assert result.evictions > 0  # not vacuous: the blacklist acted
    digest = hashlib.sha256(_result_payload([result]).encode()).hexdigest()
    assert digest == GOLDEN_POWER_OF_D_DIGEST


#: sha256 of centralized Hopper replays that stress the dispatch work
#: sets, captured before the passes walked work sets instead of every
#: active job. ``budgeted-shrinks``: budgeted speculation while six
#: scheduled resizes shrink and regrow a 60-slot cluster; a shrink
#: leaves originals above the new fence, so four speculation passes
#: run out of free slots midway. ``capacity-rich``: 120 jobs on 8000
#: slots, up to 112 active at once, with every solve but two in the
#: everyone-capped regime (946 of them over more than 100 jobs).
GOLDEN_WORK_SET_DIGESTS = {
    "budgeted-shrinks": (
        "8fafe9dd32f55463a90278f1d3f454abe4f1cb39d60ef2c2d17ec7ac052d388a",
        RunSpec(
            "centralized",
            "hopper",
            WorkloadParams(
                profile="spark-facebook", num_jobs=60, utilization=0.9,
                total_slots=60, seed=2,
            ),
            knobs={
                "speculation_mode": "budgeted",
                "autoscaler": "schedule",
                "resize_schedule": "2:-8,4:+8,6:-8,8:+8,10:-8,12:+8",
            },
        ),
    ),
    "capacity-rich": (
        "35296c0b44f28b27c59b8fef47ec442b420612a2e4620dc7fcde076cb45d7ba9",
        RunSpec(
            "centralized",
            "hopper",
            WorkloadParams(
                profile="spark-facebook", num_jobs=120, utilization=0.6,
                total_slots=8000, seed=5,
            ),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORK_SET_DIGESTS))
def test_work_set_replays_are_pinned(name):
    digest, spec = GOLDEN_WORK_SET_DIGESTS[name]
    result = spec.execute()
    assert result.num_jobs == spec.workload.num_jobs
    assert result.speculative_copies > 0
    assert hashlib.sha256(_result_payload([result]).encode()).hexdigest() == digest


#: sha256 of replays whose scheduler work follows the jobs an event
#: changed, captured before the decentralized demand memo, the capped
#: solve's early return and the preemption delta existed.
#: ``sparrow-lb``: late binding, whose reservations and pulls mutate a
#: job's queue between offers. ``hopper-many``: decentralized Hopper
#: with GRASS, 150 jobs over 10 schedulers on 8,000 workers.
#: ``regime-flips``: centralized Hopper on a capacity-rich 2,000-slot
#: cluster that scheduled shrinks push into the constrained regime and
#: back (2,765 capped and 1,905 solved reschedules, 6 regime flips, 32
#: copies preempted).
GOLDEN_CHANGED_JOBS_DIGESTS = {
    "sparrow-lb": (
        "14292408aa19f8c068158d2821ad924988bd62fb925d680d5670757426ef1e2a",
        RunSpec(
            "decentralized",
            "sparrow-lb",
            WorkloadParams(
                profile="spark-facebook", num_jobs=60, utilization=0.8,
                total_slots=200, seed=4,
            ),
        ),
    ),
    "hopper-many": (
        "e2386d624465b87f09af45187887af939b2d848fd3886452f918f4eb19c69530",
        RunSpec(
            "decentralized",
            "hopper",
            WorkloadParams(
                profile="spark-facebook", num_jobs=150, utilization=0.6,
                total_slots=8000, seed=5,
            ),
            speculation="grass",
        ),
    ),
    "regime-flips": (
        "a029a66d5f20a14e52e9672e331fd2cbc664af09a07d16e055d1748842fcdc65",
        RunSpec(
            "centralized",
            "hopper",
            WorkloadParams(
                profile="spark-facebook", num_jobs=120, utilization=0.6,
                total_slots=2000, seed=5,
            ),
            knobs={
                "autoscaler": "schedule",
                "resize_schedule": "20:-400,60:+400,100:-450,140:+450",
            },
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHANGED_JOBS_DIGESTS))
def test_changed_jobs_replays_are_pinned(name):
    digest, spec = GOLDEN_CHANGED_JOBS_DIGESTS[name]
    result = spec.execute()
    assert result.num_jobs == spec.workload.num_jobs
    assert result.speculative_copies > 0
    assert hashlib.sha256(_result_payload([result]).encode()).hexdigest() == digest


#: sha256 of one ``strikes-probation`` replay per plane, captured while
#: every eviction and reinstatement still rebuilt the plane's membership
#: from a mirror blacklist. Machine-correlated stragglers drive the
#: evictions; four scheduled resizes retire and add machines around the
#: evicted ones, and probation returns each evicted machine to the pool.
GOLDEN_PROBATION_DIGESTS = {
    "centralized": "5bb5b1dda47ba6e2775a5f2e38245873ae8d5bb4d8ba8015dd650c4247200c99",
    "batch": "34cb8ed35b1d83c617e93b36a33098d83f13255b312c65a655ab93eaae21ffb1",
    "decentralized": "121768087893142c9403c521e6bda4c4f135eed15d13a6fb840d5a02923c6fc7",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_PROBATION_DIGESTS))
def test_probation_reinstatement_replays_are_pinned(kind):
    spec = RunSpec(
        kind,
        "hopper",
        WorkloadParams(
            profile="facebook", num_jobs=40, utilization=0.7,
            total_slots=80, seed=3,
        ),
        knobs={
            "straggler_model": "machine-correlated",
            "blacklist_policy": "strikes-probation",
            "strike_threshold": 2,
            "autoscaler": "schedule",
            "resize_schedule": "2:-6,5:+10,9:-8,14:+6",
        },
    )
    result = spec.execute()
    assert result.num_jobs == spec.workload.num_jobs
    # Not vacuous: machines left the pool and probation brought them back.
    assert result.evictions > 0
    assert result.reinstatements > 0
    digest = hashlib.sha256(_result_payload([result]).encode()).hexdigest()
    assert digest == GOLDEN_PROBATION_DIGESTS[kind]


#: sha256 of one decentralized replay on 40 two-slot workers, under
#: strikes-probation eviction and eight scheduled resizes spread over
#: the trace. No RunSpec builds a worker with more than one slot, so
#: this is the one pin on the order in which a leaving worker's two
#: running copies are killed and their tasks requeued: several shrinks
#: retire a worker whose two copies a walk over the jobs meets in the
#: opposite order to their binds.
GOLDEN_MULTI_SLOT_DIGEST = (
    "1bfb544f5ed4b00b5350f4324278c0e3471642404167bc5aa85c72ba2bcbd5b2"
)


def test_two_slot_worker_teardown_replay_is_pinned(monkeypatch):
    from repro.decentralized.config import DecentralizedConfig, WorkerPolicy
    from repro.decentralized.simulator import DecentralizedSimulator
    from repro.experiments.harness import WorkloadSpec, build_trace
    from repro.simulation.rng import RandomSource
    from repro.speculation import LATE
    from repro.stragglers.model import MachineCorrelatedStragglerModel

    spec = WorkloadSpec(num_jobs=40, utilization=0.9, total_slots=80, seed=1)
    workers = 40
    simulator = DecentralizedSimulator(
        num_workers=workers,
        slots_per_worker=2,
        speculation=lambda: LATE(),
        trace=build_trace(spec),
        straggler_model=MachineCorrelatedStragglerModel(num_machines=workers),
        config=DecentralizedConfig(
            worker_policy=WorkerPolicy.HOPPER,
            probe_ratio=4.0,
            epsilon=0.1,
            default_beta=spec.profile.beta,
        ),
        random_source=RandomSource(seed=7),
        blacklist_policy=registry.make_blacklist_policy(
            "strikes-probation", num_machines=workers, strike_threshold=2
        ),
        autoscaler=registry.make_autoscaler(
            "schedule",
            resize_schedule="20:-8,30:+8,60:-8,70:+8,100:-8,110:+8,140:-8,150:+8",
        ),
    )
    torn_down = []
    running_copies = DecentralizedSimulator._running_copies

    def recorded(sim, worker_ids):
        groups = running_copies(sim, worker_ids)
        torn_down.extend(len(victims) for victims in groups)
        return groups

    monkeypatch.setattr(DecentralizedSimulator, "_running_copies", recorded)
    result = simulator.run()
    assert result.num_jobs == spec.num_jobs
    assert result.evictions > 0 and result.reinstatements > 0
    # Not vacuous: some evicted or retired worker ran two copies at once.
    assert max(torn_down) == 2
    digest = hashlib.sha256(_result_payload([result]).encode()).hexdigest()
    assert digest == GOLDEN_MULTI_SLOT_DIGEST


@pytest.mark.parametrize("kind", ["centralized", "decentralized"])
def test_explicit_none_blacklist_policy_is_byte_identical(kind):
    """Differential: blacklist_policy="none" must not perturb a replay.

    The knob changes the RunSpec digest (it is a real knob) but the
    *results* must be byte-identical to the knob-free run — the policy
    wiring may not consume entropy, reorder events, or touch the
    cluster when no policy is active.
    """
    workload = WorkloadParams(
        profile="facebook", num_jobs=12, utilization=0.6,
        total_slots=60, seed=5,
    )
    bare = RunSpec(kind, "hopper", workload)
    with_none = RunSpec(
        kind, "hopper", workload, knobs={"blacklist_policy": "none"}
    )
    assert bare.digest() != with_none.digest()  # real knob, real cache key
    assert _result_payload([bare.execute()]) == _result_payload(
        [with_none.execute()]
    )


@pytest.mark.parametrize(
    "kind", ["centralized", "decentralized", "batch", "serving"]
)
def test_explicit_none_autoscaler_is_byte_identical(kind):
    """Differential: autoscaler="none" must not perturb a replay.

    Same contract as the blacklist knob above, on every spec kind that
    grew the autoscaler family: the knob is a real cache key, but the
    elastic wiring may not consume entropy, reorder events, or touch
    the cluster when no autoscaler is active.
    """
    workload = WorkloadParams(
        profile="facebook", num_jobs=12, utilization=0.6,
        total_slots=60, seed=5,
    )
    base_knobs = {}
    if kind == "serving":
        # Trim the open-loop time layout so the differential stays fast;
        # both sides share it, only the autoscaler knob differs.
        base_knobs = {
            "warmup": 5.0, "horizon": 30.0, "cooldown": 5.0, "window": 5.0
        }
    bare = RunSpec(kind, "hopper", workload, knobs=dict(base_knobs))
    with_none = RunSpec(
        kind, "hopper", workload,
        knobs={**base_knobs, "autoscaler": "none"},
    )
    assert bare.digest() != with_none.digest()  # real knob, real cache key
    assert _result_payload([bare.execute()]) == _result_payload(
        [with_none.execute()]
    )


def test_eviction_improves_machine_correlated_quick_grid():
    """Behavioural differential (the PR's acceptance criterion): on the
    blacklist_policy study's quick grid, strike-driven eviction improves
    mean job completion time over eviction-off under machine-correlated
    stragglers, on BOTH simulator planes."""
    study = registry.studies().get("blacklist_policy").factory
    result = study.run(
        seeds=(study.seeds[0],), runner=SweepRunner(parallel=False), quick=True
    )
    mean_jct = {}
    for cell, per_cell in zip(result.cells, result.results):
        labels = cell.label_dict()
        key = (labels["straggler_model"], labels["eviction"], labels["kind"])
        mean_jct[key] = per_cell[0].mean_job_duration
    for kind in ("centralized", "decentralized"):
        off = mean_jct[("machine-correlated", "none", kind)]
        on = mean_jct[("machine-correlated", "strikes", kind)]
        assert on < off, (
            f"{kind}: eviction-on mean JCT {on} did not improve on "
            f"eviction-off {off}"
        )


def test_scale_quick_grid_covers_ten_thousand_slots():
    """--quick trims the grid, not the regime: >=10k slots stays in."""
    study = registry.studies().get("scale").factory
    cells = study.cells(quick=True)
    sizes = {cell.label_dict()["total_slots"] for cell in cells}
    assert max(sizes) >= 10000
