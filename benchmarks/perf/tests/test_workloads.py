"""Workload generation is a pure function of (name, seed)."""

import pytest

from workloads import WORKLOADS, build_graph, cli_args, edge_digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_graph(name):
    a, b = build_graph(name, 7), build_graph(name, 7)
    assert a == b
    assert a.total_dependencies() == b.total_dependencies()
    assert edge_digest(a) == edge_digest(b)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_moves_only_dense_random_edges(name):
    a, b = build_graph(name, 7), build_graph(name, 8)
    assert a.seed != b.seed  # the output patterns differ everywhere
    same_edges = edge_digest(a) == edge_digest(b)
    assert same_edges == (name != "dense_random")


def test_shapes_match_their_rationale():
    fine = build_graph("fine_stencil", 1)
    assert (fine.total_tasks(), fine.total_dependencies()) == (2000, 5478)
    dense = build_graph("dense_random", 1)
    sets = {dense.spec.dependence_set_at_timestep(t)
            for t in range(dense.timesteps)}
    assert len(sets) == dense.timesteps  # a dependence set per timestep
    assert 3.5 < dense.total_dependencies() / dense.total_tasks() < 4.7
    assert build_graph("big_payload", 1).output_bytes_per_task == 65536
    assert build_graph("coarse_wait", 1).kernel.wait_us == 500.0
    assert all(build_graph(n, 1).timesteps < 1024 for n in WORKLOADS)


def test_cli_args_describe_the_same_shape():
    from repro.core import parse_args

    for name in WORKLOADS:
        app = parse_args(cli_args(name, 5, steps=100))
        assert app.graphs == [build_graph(name, 5, steps=100)]
