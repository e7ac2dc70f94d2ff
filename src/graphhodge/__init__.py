"""Discrete Hodge theory on graphs.

Clique complexes, coboundary operators, Hodge k-Laplacians, spectra and Betti
numbers, least-squares Helmholtz decomposition, pairwise-comparison ranking,
potential/harmonic game structure, and nonlinear p-Laplacians with Cheeger
constants.

Each layer module is imported when one of its names is first used (PEP 562), so
`import graphhodge` loads neither a layer module nor numpy.
"""

from importlib import import_module

_EXPORTS = {
    "cochains": ("Cochain", "WeightScheme", "inner_product", "norm", "read_cochain_tsv", "read_weights_tsv",
                 "write_cochain_tsv"),
    "complexes": ("CliqueComplex", "Graph", "InputFormatError", "enumerate_cliques", "parse_graph"),
    "decompose": ("ConvergenceError", "HodgeSplit", "OperatorPairReport", "harmonic_project", "hodge_decompose",
                  "verify_operator_pair"),
    "games": ("GameForm", "GameFlowSplit", "StrategyGraph", "decompose_game_flow", "game_flow", "is_harmonic_game",
              "is_potential_game", "pure_nash", "strategy_graph"),
    "hodgerank": ("Certificate", "ComparisonData", "ComparisonFlow", "RankingResult", "aggregate", "borda_divergence",
                  "rank"),
    "nonlinear": ("Cut", "CheegerReport", "apply_p_laplacian", "cheeger_check", "cheeger_constant"),
    "operators": ("CoboundaryOperator", "HodgeLaplacian", "adjoint", "apply_operator", "coboundary",
                  "divergence_matrix", "hodge_laplacian", "read_matrix", "write_matrix"),
    "spectral": ("Spectrum", "betti", "compare_fingerprints", "harmonic_basis", "isospectral_fingerprint", "spectrum"),
}
_LAYERS = (*_EXPORTS, "textio", "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # looked up on every access, never cached here: a wrapper set on the defining module is what callers get
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
