"""Every exception class that panrec defines subclasses `PanrecError`, a
`ValueError`, so one except clause catches every bad-input error."""
import importlib
import inspect
import pkgutil

import panrec
from panrec.geometry import PanrecError


def test_every_panrec_error_subclasses_panrec_error():
    modules = [importlib.import_module(f"panrec.{m.name}")
               for m in pkgutil.iter_modules(panrec.__path__)]
    errors = {obj.__name__: obj for module in modules for obj in vars(module).values()
              if inspect.isclass(obj) and issubclass(obj, BaseException)
              and obj.__module__ == module.__name__}
    assert sorted(errors) == sorted([
        "PanrecError", "GeometryError", "PriorsError", "LiftingError", "ReconstructionError",
        "VolumeError", "MetricError", "ContainerError", "LossError", "SynthError"])
    assert all(issubclass(error, PanrecError) for error in errors.values())
    assert issubclass(PanrecError, ValueError)
