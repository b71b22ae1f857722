"""Where the traced run wraps the program, layer by layer.

Every wrapper goes on a public entry point, at the name the caller looks
it up by: ``charlib.characterizer`` imports ``transient`` and
``dc_operating_point`` by name, so those are wrapped in that module;
``engine.engine`` binds ``evaluate_system`` the same way; ``Workspace``
imports ``build_char_dataset`` and ``train_char_model``, and the runner
``build_benchmark``, at call time, so their home modules are patched.
"""

from __future__ import annotations

__all__ = ["install", "EDA_STAGES"]

EDA_STAGES = ("synthesis", "placement", "routing", "sta", "power",
              "drc_lvs")


def install(tracer) -> None:
    """Wrap every layer's entry points into ``tracer``."""
    import repro.charlib.characterizer as characterizer
    import repro.charlib.dataset as dataset
    import repro.charlib.model as charmodel
    import repro.eda.benchmarks as benchmarks
    import repro.engine.engine as engine
    from repro.api.workspace import Workspace
    from repro.charlib.fastchar import GNNLibraryBuilder
    from repro.search import optimizers
    from repro.spice.mna import CompiledCircuit
    from repro.surrogate.models import EnsemblePPAModel
    from repro.surrogate.records import RecordStore

    count = tracer.count

    # spice
    def on_transient(args, kwargs, result):
        count("spice.steps", len(result.t) - 1)
        if not result.converged:
            count("spice.nonconverged")

    def on_dc(args, kwargs, result):
        if not result.converged:
            count("spice.nonconverged")

    tracer.wrap(characterizer, "transient", "spice.transient",
                on_transient)
    tracer.wrap(characterizer, "dc_operating_point", "spice.dc", on_dc)
    tracer.wrap(CompiledCircuit, "newton", "spice.newton",
                lambda a, k, r: count("spice.newton.iters", r.iterations),
                timed=False)

    # charlib
    tracer.wrap(characterizer.CellCharacterizer, "characterize",
                "charlib.characterize",
                lambda a, k, r: count("charlib.measurements", len(r)))
    tracer.wrap(dataset, "build_char_dataset", "charlib.dataset")
    tracer.wrap(GNNLibraryBuilder, "build", "charlib.gnn_build")
    tracer.wrap(GNNLibraryBuilder, "build_many", "charlib.gnn_build")

    # nn
    def on_train(args, kwargs, result):
        config = kwargs.get("train_config")
        if config is None and len(args) > 2:
            config = args[2]
        count("nn.train.epochs",
              config.epochs if config is not None
              else charmodel.CharTrainConfig().epochs)

    tracer.wrap(charmodel, "train_char_model", "nn.train", on_train)

    # api
    tracer.wrap(Workspace, "dataset", "api.dataset")
    tracer.wrap(Workspace, "model", "api.model")

    # engine + eda
    tracer.wrap(engine.EvaluationEngine, "evaluate_many",
                "engine.evaluate_many")
    tracer.wrap(benchmarks, "build_benchmark", "eda.netlist")

    def on_flow(args, kwargs, result):
        for stage, secs in result.stage_runtimes_s.items():
            count(f"eda.{stage}.s", secs)

    tracer.wrap(engine, "evaluate_system", "eda.flow", on_flow)

    # search: each concrete optimizer's own ask/tell
    for cls in (optimizers.Optimizer, optimizers.RandomOptimizer,
                optimizers.GridOptimizer, optimizers.SimulatedAnnealing,
                optimizers.EvolutionaryOptimizer,
                optimizers.BayesianOptimizer):
        for method in ("ask", "tell"):
            func = vars(cls).get(method)
            if func is not None and not getattr(
                    func, "__isabstractmethod__", False):
                tracer.wrap(cls, method, f"search.{method}")

    # surrogate
    tracer.wrap(EnsemblePPAModel, "fit", "surrogate.fit")
    tracer.wrap(EnsemblePPAModel, "refit", "surrogate.fit")
    tracer.wrap(RecordStore, "add", "surrogate.add",
                lambda a, k, r: count("surrogate.rows", 1 if r else 0),
                timed=False)
