"""Probes on the public functions of each ``fnode`` layer, and the per-layer metrics.

Every probe rebinds a function where the program looks it up, so the
program's own files stay untouched.  ``PER_LAYER`` names each reported metric,
its unit, how it is read from the tracer, and the phase it comes from: all
but ``serialize.save_s`` describe one round of the timed phase (a sum over the
traced rounds divided by their number); ``serialize.save_s`` describes one
set-up, where the archive is written.
"""

from __future__ import annotations

import os
from time import perf_counter

# metric name -> (unit, kind, source name, phase)
#   kind "self":  self time of the spans called <source>
#   kind "count": counter <source>
#   kind "max":   largest value recorded under <source>
#   kind "p50":   median of the samples recorded under <source>
PER_LAYER = {
    "tensorgrad.backward_s": ("s", "self", "tensorgrad.backward", "round"),
    "tensorgrad.tape_nodes": ("count", "count", "tensorgrad.tape_nodes", "round"),
    "tensorgrad.tensors": ("count", "count", "tensorgrad.tensors", "round"),
    "nets.encode_s": ("s", "self", "nets.encode", "round"),
    "nets.hyper_s": ("s", "self", "nets.hyper", "round"),
    "nets.decode_s": ("s", "self", "nets.decode", "round"),
    "odeint.solve_s": ("s", "self", "odeint.solve", "round"),
    "odeint.field_evals": ("count", "count", "odeint.field_evals", "round"),
    "model.adam_s": ("s", "self", "model.adam", "round"),
    "model.epoch_s.p50": ("s", "p50", "model.epoch", "round"),
    "gmm.em_fit_s.spherical": ("s", "self", "gmm.em_fit.spherical", "round"),
    "gmm.em_fit_s.tied": ("s", "self", "gmm.em_fit.tied", "round"),
    "gmm.em_fit_s.diag": ("s", "self", "gmm.em_fit.diag", "round"),
    "gmm.em_fit_s.full": ("s", "self", "gmm.em_fit.full", "round"),
    "gmm.model_builds": ("count", "count", "gmm.model_builds", "round"),
    "gmm.validate_s": ("s", "self", "gmm.validate", "round"),
    "gmm.score_s": ("s", "self", "gmm.score", "round"),
    "gmm.sample_s": ("s", "self", "gmm.sample", "round"),
    "serialize.save_s": ("s", "self", "serialize.save", "setup"),
    "serialize.load_s": ("s", "self", "serialize.load", "round"),
    "serialize.archive_mb": ("MB", "max", "serialize.archive_mb", "round"),
    "syndata.load_s": ("s", "self", "syndata.load", "round"),
    "inference.rollouts": ("count", "count", "inference.rollouts", "round"),
    "inference.rollout_s": ("s", "self", "inference.rollout", "round"),
    "inference.band_s": ("s", "self", "inference.band", "round"),
    "cli.sample_s": ("s", "self", "cli.sample", "round"),
    "cli.ood_s": ("s", "self", "cli.ood", "round"),
    "cli.eval_s": ("s", "self", "cli.eval", "round"),
}

MB = float(1 << 20)


def _reachable_nodes(out) -> int:
    """Tape nodes reachable from ``out`` through their parents."""
    seen: set[int] = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def install(tr, spec_layers: dict) -> None:
    """Rebind every probed function; ``spec_layers`` maps an MLPSpec to its layer span."""
    import fnode.cli as cli
    import fnode.gmm as gmm
    import fnode.inference as inference
    import fnode.model as model
    import fnode.nets as nets
    import fnode.tensorgrad as tg

    def backward(orig):
        timed = tr.timed("tensorgrad.backward", orig)

        def probe(out):
            tr.count("tensorgrad.tape_nodes", _reachable_nodes(out))
            return timed(out)

        return probe

    def tensor_init(orig):
        def probe(self, *args, **kwargs):
            tr.count("tensorgrad.tensors")
            orig(self, *args, **kwargs)

        return probe

    def mlp_forward(orig):
        def probe(spec, params, x):
            return tr.timed(spec_layers.get(spec, "nets.mlp"), orig)(spec, params, x)

        return probe

    def solver(orig):
        timed = tr.timed("odeint.solve", orig)

        def probe(field, *args, **kwargs):
            def counted(*fargs):
                tr.count("odeint.field_evals")
                return field(*fargs)

            return timed(counted, *args, **kwargs)

        return probe

    def em_fit(orig):
        def probe(*args, **kwargs):
            cov_type = args[2] if len(args) > 2 else kwargs.get("cov_type", "diag")
            return tr.timed("gmm.em_fit." + cov_type, orig)(*args, **kwargs)

        return probe

    def gmm_validate(orig):
        timed = tr.timed("gmm.validate", orig)

        def probe(self):
            tr.count("gmm.model_builds")
            return timed(self)

        return probe

    def load_archive(orig):
        timed = tr.timed("serialize.load", orig)

        def probe(path):
            tr.keep_max("serialize.archive_mb", os.path.getsize(path) / MB)
            return timed(path)

        return probe

    def rollout(orig):
        timed = tr.timed("inference.rollout", orig)

        def probe(*args, **kwargs):
            tr.count("inference.rollouts")
            return timed(*args, **kwargs)

        return probe

    def timed(name):
        return lambda orig: tr.timed(name, orig)

    tr.patch(tg, "backward", backward)
    tr.patch(tg.Tensor, "__init__", tensor_init)
    tr.patch(nets, "mlp_forward", mlp_forward)
    tr.patch(model, "integrate", solver)
    tr.patch(model, "integrate_batch", solver)
    tr.patch(model.Adam, "step", timed("model.adam"))
    tr.patch(model, "fit", timed("model.fit"))
    tr.patch(gmm, "em_fit", em_fit)
    tr.patch(gmm.GMMModel, "__post_init__", gmm_validate)
    tr.patch(gmm, "score_rows", timed("gmm.score"))
    tr.patch(gmm, "sample", timed("gmm.sample"))
    tr.patch(gmm, "select_model", timed("gmm.select_model"))
    tr.patch(cli, "save_archive", timed("serialize.save"))
    tr.patch(cli, "load_archive", load_archive)
    tr.patch(cli, "load_dataset", timed("syndata.load"))
    tr.patch(inference, "rollout", rollout)
    tr.patch(inference, "credible_band", timed("inference.band"))


def epoch_clock(tr):
    """An ``on_epoch`` callback for ``model.fit`` that samples each epoch's wall time."""
    last = [perf_counter()]

    def on_epoch(epoch, breakdown):
        now = perf_counter()
        tr.sample("model.epoch", now - last[0])
        last[0] = now

    return on_epoch


def per_layer_metrics(tr, n_rounds: int) -> dict:
    """Every metric of ``PER_LAYER``, per traced round (or for the one traced set-up).

    A layer the workload does not run reports 0.
    """
    per_phase = {}
    for phase in ("setup", "round"):
        per_phase[phase] = (tr.self_times(phase), tr.counters(phase), tr.medians(phase))
    metrics = {}
    for name, (unit, kind, source, phase) in PER_LAYER.items():
        selfs, counts, meds = per_phase[phase]
        per = n_rounds if phase == "round" else 1
        if kind == "self":
            value = selfs.get(source, 0.0) / per
        elif kind == "count":
            value = counts.get(source, 0.0) / per
        elif kind == "max":
            value = counts.get(source, 0.0)
        else:
            value = meds.get(source, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
