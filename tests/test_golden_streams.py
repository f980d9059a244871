"""Frozen golden fixture for the Redstar front end.

``tests/golden/redstar-streams.json`` pins the full vector stream of
every dataset (``a1_rhopi``, ``f0d2``, ``f0d4``, ``nucleon_nn``): one
digest over each vector's id and meta and each pair's uids, labels,
ranks and output depth, plus the :class:`PipelineStats`.  A change to
diagram enumeration, the reduction rule, interning or stage
partitioning that moves one label shows up here.  Regenerate
deliberately with ``python tools/regen_golden.py --write redstar-streams``.

The datasets enumerate every cell in full, so the sampled branch is
checked against the direct path (every slice's diagrams contracted
graph by graph) on a small custom spec instead.
"""

import pytest

from repro.graphs.contraction_graph import InternTable, contract_graph
from repro.graphs.stages import build_stage_plan, stages_to_vectors
from repro.redstar import pipeline as pipeline_module
from repro.redstar.correlator import CorrelatorSpec, Operator
from repro.redstar.pipeline import RedstarPipeline
from repro.redstar.wick import pairings_are_seed_free
from repro.tensor.spec import reset_uid_counter
from tests import golden_modes as golden


@pytest.fixture(scope="module")
def fresh():
    return golden.stream_fingerprint()


@pytest.mark.parametrize("name", sorted(golden.STREAM_DATASETS))
def test_stream_matches_fixture(name, fresh):
    assert fresh["datasets"][name] == golden.load_streams()["datasets"][name]


def test_fixture_names_exactly_these_datasets():
    assert set(golden.load_streams()["datasets"]) == set(golden.STREAM_DATASETS)


# ------------------------------------------------------------ sampled cells
def sampled_spec(time_slices=4):
    """rho_pi x rho_pi cells sample (6 u-permutations > 4 x max_diagrams);
    cells with an a1 side enumerate in full."""
    return CorrelatorSpec(
        name="sampled",
        operators=(
            Operator(name="a1", hadrons=(("u", "dbar"),)),
            Operator(name="rho_pi", hadrons=(("u", "ubar"), ("u", "dbar")), momenta=2),
        ),
        tensor_size=16,
        batch=2,
        time_slices=time_slices,
        max_vector_size=8,
        max_diagrams=1,
    )


def direct_stream(spec, seed=0):
    """The stream built without plan reuse: each slice's diagrams from
    ``diagrams_for``, each graph reduced by ``contract_graph``."""
    reset_uid_counter()
    pipe = RedstarPipeline(spec, seed=seed)
    intern, depths, computed, out = InternTable(), {}, set(), []
    num_graphs = 0
    for t in range(spec.time_slices):
        graphs = pipe.diagrams(t)
        num_graphs += len(graphs)
        steps = [s for g in graphs for s in contract_graph(g, intern, depths)]
        plan = build_stage_plan([s for s in steps if s.out.uid not in computed])
        computed.update(s.out.uid for stage in plan.stages for s in stage)
        vectors = stages_to_vectors(plan, max_vector_size=spec.max_vector_size, start_id=t * 10_000)
        for v in vectors:
            v.meta["time_slice"] = t
        out.extend(vectors)
    return golden.stream_sha256(out, depths), num_graphs, len(computed)


def cell_contents(pipe, t):
    return [[(h.name, h.quarks) for h in nodes] for nodes in pipe._cell_hadrons(t)]


class TestSampledCells:
    def test_spec_mixes_sampled_and_seed_free_cells(self):
        spec = sampled_spec()
        cells = cell_contents(RedstarPipeline(spec), 0)
        free = [pairings_are_seed_free(c, spec.max_diagrams) for c in cells]
        assert any(free) and not all(free)

    def test_sampled_pairings_differ_between_slices(self):
        # Otherwise a stream that wrongly reused them would still match.
        pipe = RedstarPipeline(sampled_spec())

        def edges(t):
            return [
                sorted((a.split("@")[0], b.split("@")[0]) for a, b in g.edges)
                for g in pipe.diagrams(t)
            ]

        assert edges(0) != edges(1)

    def test_sampled_cells_rebuilt_every_slice(self, monkeypatch):
        spec = sampled_spec()
        calls = []
        real = pipeline_module.diagrams_for

        def spy(nodes, **kw):
            calls.append(tuple(h.name.split("@")[0] for h in nodes))
            return real(nodes, **kw)

        monkeypatch.setattr(pipeline_module, "diagrams_for", spy)
        pipe = RedstarPipeline(spec)
        pipe.vectors()
        cells = cell_contents(pipe, 0)
        free = [pairings_are_seed_free(c, spec.max_diagrams) for c in cells]
        assert sorted(pipe._plans) == [i for i, f in enumerate(free) if f]
        assert len(calls) == sum(free) + (len(cells) - sum(free)) * spec.time_slices
        for cell, is_free in zip(cells, free):
            key = tuple(name.split("@")[0] for name, _ in cell)
            assert calls.count(key) == (1 if is_free else spec.time_slices)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_stream_matches_direct_path(self, seed):
        spec = sampled_spec()
        digest, num_graphs, num_steps = direct_stream(spec, seed)
        reset_uid_counter()
        pipe = RedstarPipeline(spec, seed=seed)
        vectors = pipe.vectors()
        assert golden.stream_sha256(vectors, pipe._depths) == digest
        assert (pipe.stats.num_graphs, pipe.stats.num_steps) == (num_graphs, num_steps)
