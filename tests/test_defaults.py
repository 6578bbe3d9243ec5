"""The defaults the CLI restates agree with the library's own."""

import inspect

import pytest

from vqsct import cli, codebook, evaluation, model, phantom, pipeline, training

_TRAIN_OPTIONS = ("learning_rate", "batch_size", "beta", "expire_age", "decay", "weight_decay")


def _defaults(command) -> dict:
    """Each option's parser default of ``command``, by destination."""
    return {a.dest: a.default for a in cli.build_parser().commands[command]._actions}


def _keyword_defaults(function) -> dict:
    return {name: p.default for name, p in inspect.signature(function).parameters.items()
            if p.default is not inspect.Parameter.empty}


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize("function", [training.pretrain_recon, training.finetune_translate])
def test_training_options(command, function):
    flags, library = _defaults(command), _keyword_defaults(function)
    assert {o: flags[o] for o in _TRAIN_OPTIONS} == {o: library[o] for o in _TRAIN_OPTIONS}


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_codebook_options(command):
    flags = _defaults(command)
    assert flags["decay"] == codebook.DEFAULT_DECAY
    assert flags["expire_age"] == codebook.DEFAULT_EXPIRE_AGE


def test_model_flags():
    flags = _defaults("pretrain")
    fields = {"spatial_rank": "rank", "depth": "depth", "base_channels": "base_channels",
              "codebook_size": "codebook_size", "codebook_dim": "codebook_dim",
              "pyramid_levels": "pyramid_levels", "seed": "seed"}
    assert set(fields) == set(model.ModelConfig.__dataclass_fields__)
    config = model.ModelConfig()
    assert {dest: flags[dest] for dest in fields.values()} == {
        dest: getattr(config, field) for field, dest in fields.items()}


def test_cube_edges():
    edge = _keyword_defaults(training.pretrain_recon)["cube_edge"]
    assert _defaults("pretrain")["cube_edge"] == edge
    assert _defaults("select")["cube_edge"] == _keyword_defaults(
        training.select_checkpoint)["cube_edge"] == edge
    assert _defaults("reconstruct")["edge"] == _keyword_defaults(
        pipeline.reconstruct_cubes)["edge"] == edge


def test_evaluation_options():
    flags = _defaults("evaluate")
    assert flags["bone_hu"] == evaluation.BONE_THRESHOLD_HU
    assert flags["diff_cap"] == _keyword_defaults(evaluation.save_difference_maps)["cap"]


def test_stats_options():
    flags, library = _defaults("stats"), _keyword_defaults(evaluation.compare_reports)
    assert {o: flags[o] for o in ("alpha", "label_a", "label_b")} == library


def test_phantom_spacing():
    spacing = cli._parse_triple(_defaults("phantom")["spacing"], "spacing", float)
    assert spacing == _keyword_defaults(phantom.generate_phantom_pair)["spacing_mm"]
