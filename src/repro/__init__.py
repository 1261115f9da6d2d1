"""repro — reproduction of *GPU Technology Applied to Reverse Time Migration
and Seismic Modeling via OpenACC* (Qawasmeh, Chapman, Hugues, Calandra,
PMAM/PPoPP 2015).

The package implements, from scratch and in pure NumPy:

* the three wave-physics formulations the paper ports (isotropic
  constant-density second-order, acoustic variable-density first-order
  staggered-grid, elastic velocity-stress), each in 2D and 3D
  (:mod:`repro.propagators`);
* seismic modeling and Reverse Time Migration drivers following the paper's
  Algorithm 1 and the five-step OpenACC offload pipeline of its Figure 4
  (:mod:`repro.core`);
* an OpenACC-style directive layer — data regions, ``kernels``/``parallel``
  constructs, loop-scheduling clauses, async queues — lowered by PGI-like and
  CRAY-like compiler personas (:mod:`repro.acc`);
* a simulated NVIDIA device (Fermi M2090 and Kepler K40) with a memory
  allocator, PCIe transfer model, CUDA occupancy calculator, roofline kernel
  cost model and profiler (:mod:`repro.gpusim`);
* an MPI-like substrate with Cartesian domain decomposition and halo exchange
  plus a CPU-cluster cost model used as the paper's full-socket reference
  (:mod:`repro.mpisim`);
* the paper's optimization catalogue — loop fission, transposition for
  coalescing, register tuning, async packing, PML restructuring
  (:mod:`repro.optim`);
* a benchmark harness regenerating every table and figure of the paper's
  evaluation section (:mod:`repro.bench`).

Each subpackage is imported on first access (``repro.core`` below), so
``import repro`` loads only this module and :mod:`repro.version`, and
``import repro.<x>`` loads ``x`` and the layers below it
(``docs/architecture.md``, "Key seams").

Quickstart::

    import repro
    model = repro.model.layered_model((128, 128), spacing=10.0,
                                      interfaces=[640.0], velocities=[1500., 2600.])
    result = repro.core.run_modeling(repro.core.ModelingConfig(
        physics="acoustic", model=model, nt=500))
    print(result.seismogram.shape, result.snapshots.count)
"""

import importlib
import sys

from repro.version import __version__


def lazy_exports(package: str, exports: dict[str, tuple[str, ...] | None]):
    """PEP 562 hooks for a package whose public names load on first use.

    ``exports`` is the package's one table of public names: it maps each
    submodule of ``package`` to the names it defines, or to ``None`` when
    the public name is the submodule itself. Returns ``(__getattr__,
    __dir__, names)``; the package binds the two hooks and builds
    ``__all__`` from ``names``.

    ``__getattr__`` imports the owning module on each lookup and never
    stores the value in the package. The wall benchmark's traced run
    (``benchmarks/wall/layers.py``) times a function by patching each
    binding of it that a module's ``vars()`` holds, and reverts those
    bindings afterwards; a value cached here during the traced call
    would be a timing shim that nothing reverts.
    """
    owners = {
        name: (f"{package}.{module}", names is not None)
        for module, names in exports.items()
        for name in ((module,) if names is None else names)
    }

    def __getattr__(name: str):
        try:
            module, is_attribute = owners[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        loaded = importlib.import_module(module)
        return getattr(loaded, name) if is_attribute else loaded

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *owners})

    return __getattr__, __dir__, list(owners)


__getattr__, __dir__, _SUBPACKAGES = lazy_exports(__name__, dict.fromkeys((
    "acc", "bench", "boundary", "core", "gpusim", "grid", "model", "mpisim",
    "optim", "propagators", "source", "stencil", "trace", "utils",
)))

__all__ = ["__version__", *_SUBPACKAGES]
