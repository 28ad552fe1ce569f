"""The error contract: one class per kind of error, one exit code per kind."""

import inspect

import pytest

from cniprobe import cli, errors
from cniprobe.errors import CniProbeError, ConfigError, DataError, NumericalError


def test_errors_are_the_base_and_its_three_kinds():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, BaseException)}
    assert classes == {"CniProbeError", "ConfigError", "DataError",
                       "NumericalError"}
    for kind in (ConfigError, DataError, NumericalError):
        assert kind.__bases__ == (CniProbeError,)


@pytest.mark.parametrize("error, code", [(CniProbeError, 2), (ConfigError, 2),
                                         (DataError, 3), (NumericalError, 4)])
def test_main_maps_each_kind_to_its_exit_code(tmp_path, capsys, monkeypatch,
                                              error, code):
    def failing_handler(args, spec):
        raise error("what went wrong")

    parser = cli.build_parser()
    parse_args = parser.parse_args

    def parse_with_failing_handler(argv):
        args = parse_args(argv)
        args.func = failing_handler
        return args

    monkeypatch.setattr(parser, "parse_args", parse_with_failing_handler)
    out = tmp_path / "out"
    assert cli.main(["synth", "--out", str(out)]) == code
    assert capsys.readouterr() == ("", "error: what went wrong\n")
    assert not out.exists()
