#!/usr/bin/env python3
"""Single-key config mutation sweep of the sigmalab command line.

Every key that a built-in preset sets is given, one at a time, each of
a fixed list of hostile values (non-finite, huge, tiny, negative and
malformed numbers).  Each edited config runs in-process through
``sigmalab.cli.main`` in a forked child of its own, which sets on
itself RuntimeWarning as an error, a 3 GB address-space limit and a
20-s alarm.  A run keeps the CLI's contract when it returns 0, 1, 2
or 3, leaks no warning and, on exit 1 or 3, says why in one line on
stderr.  The sweep prints how many runs ended in each way, then every
run that broke the contract.

    python3 tools/mutate_configs.py [--preset NAME ...]

The runs go one at a time; all seven presets (about 4,000 runs) take
several minutes on two cores.  The sweep is not part of the test suite.
"""

from __future__ import annotations

import argparse
import collections
import os
import resource
import select
import shutil
import signal
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # no thread pool is forked mid-flight

from sigmalab import cli  # noqa: E402

#: The values each key is set to, as config text.
VALUES = ("nan", "inf", "-inf", "1e400", "-1", "0", "-0", "1e-400", "1e300",
          "1e-300", "5e-324", "1e20", "-1e20", "2.5", "1_000", "0x10", " 7 ",
          "1/0", "0/0", "3/0", "x", "", "1,2", ",", "2,,3")

#: Sizes that keep a run short, unless the edited key is one of them.
SMALL = {"evolve": {"grid": {"N": "128"}, "time": {"t_end": "5"}},
         "decay-fit": {"grid": {"N": "1024"}}}

AS_LIMIT = 3 * 10 ** 9  # bytes
ALARM_S = 20
#: How long past the alarm a child may run before it is killed (a
#: signal handler runs only between bytecodes, not inside numpy).
GRACE_S = 20
#: The outcomes that keep the contract.
CONTRACT = {f"exit {code}" for code in range(4)}


class _Alarm(BaseException):
    pass


def cases(presets):
    """(preset, command, section, key, value, sections) of every run."""
    for preset in presets:
        command, given = cli.PRESETS[preset]
        base = {section: dict(keys) for section, keys in given.items()}
        for section, keys in SMALL.get(command, {}).items():
            base.setdefault(section, {}).update(keys)
        for section, keys in given.items():
            for key in keys:
                for value in VALUES:
                    edited = {name: dict(entries) for name, entries in base.items()}
                    edited[section][key] = value
                    yield preset, command, section, key, value, edited


def _ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                           for key, value in entries.items())
                   for name, entries in sections.items())


def _child(command: str, sections, work: str) -> str:
    """The outcome of one run, in the forked child."""
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))

    def on_alarm(signum, frame):
        raise _Alarm

    signal.signal(signal.SIGALRM, on_alarm)
    config = os.path.join(work, "c.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(_ini(sections))
    err_path = os.path.join(work, "stderr")
    with open(err_path, "w+", encoding="utf-8") as err, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        os.dup2(err.fileno(), 2)
        sys.stderr = err
        signal.alarm(ALARM_S)
        try:
            code = cli.main([command, "--config", config,
                             "--out", os.path.join(work, "out")])
        except _Alarm:
            return "alarm"
        except RuntimeWarning as exc:
            return f"leaked {type(exc).__name__}"
        except Exception as exc:
            return f"uncaught {type(exc).__name__}"
        finally:
            signal.alarm(0)
            sys.stderr.flush()
    if caught:
        return f"leaked {caught[0].category.__name__}"
    with open(err_path, encoding="utf-8") as fh:
        text = fh.read()
    if code not in (0, 1, 2, 3):
        return f"exit {code!r}"
    if "Traceback" in text or "Warning" in text:
        return f"exit {code}, traceback or warning on stderr"
    if code in (1, 3) and text.count("\n") != 1:
        return f"exit {code}, {text.count(chr(10))} stderr lines"
    return f"exit {code}"


def run(command: str, sections, work: str) -> str:
    """Run one case in a forked child and return its outcome."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        outcome = "child error"
        try:
            outcome = _child(command, sections, work)
        except BaseException as exc:  # e.g. MemoryError while reporting
            outcome = f"uncaught {type(exc).__name__}"
        finally:
            os.write(write, outcome.encode())
            os._exit(0)
    os.close(write)
    ready, _, _ = select.select([read], [], [], ALARM_S + GRACE_S)
    if ready:
        outcome = os.read(read, 4096).decode()
    else:
        os.kill(pid, signal.SIGKILL)
        outcome = "alarm"
    os.close(read)
    _, status = os.waitpid(pid, 0)
    if not outcome:
        outcome = (f"killed by signal {os.WTERMSIG(status)}"
                   if os.WIFSIGNALED(status) else "no outcome")
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--preset", action="append", choices=sorted(cli.PRESETS),
                        help="sweep only this preset (repeatable; default all)")
    args = parser.parse_args(argv)
    counts = collections.Counter()
    broken = []
    root = tempfile.mkdtemp(prefix="mutate-configs-")
    try:
        for preset, command, section, key, value, sections in cases(
                args.preset or list(cli.PRESETS)):
            work = os.path.join(root, "run")
            os.mkdir(work)
            outcome = run(command, sections, work)
            shutil.rmtree(work)
            counts[outcome] += 1
            if outcome not in CONTRACT:
                broken.append((preset, section, key, value, outcome))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    total = sum(counts.values())
    print(f"{total} runs, {len(broken)} outside the contract")
    for outcome, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{count:6d}  {outcome}")
    for preset, section, key, value, outcome in broken:
        print(f"{preset} [{section}] {key} = {value!r}: {outcome}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
