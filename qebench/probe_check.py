"""Does the speed probe read the machine rather than the program's work?

    python3 qebench/probe_check.py --seconds 180 [--loop 20000]

Run from the root of a checkout, on an otherwise idle machine. Under
:class:`probe.SpeedProbe` it alternates two blocks of the program's own code
for ``--seconds``:

* ``numpy``: ``qestack.ensemble.fit_word_ensemble`` on an ensemble-wide
  corpus (1,500 sentences, 10 systems), one Powell cycle; its time is the
  numpy objective;
* ``python``: ``qestack.labeler.align_edit`` over 300 long sentences, a
  pure-Python dynamic programme.

It prints one JSON object:

* ``bias``: median probe sample during ``numpy`` blocks over that during the
  neighbouring ``python`` blocks. 1.0 means the probe reads the same whatever
  the program was doing; the nominal times of a stage that moves into numpy
  are off by this factor.
* per block kind, over windows of ``--window`` block pairs: the quartile
  spread (IQR / median) of the raw time and of the time at the nominal
  speed, and the correlation of the raw time with the probe. A probe that
  tracks the machine lowers the spread of both kinds alike.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import probe  # noqa: E402


def _blocks():
    import numpy as np

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from qestack import ensemble, labeler
    from qestack.corpus import PredictionSet, Sentence, Stream, Tag

    rng = np.random.default_rng([99, 0])
    wide = gen.make_corpus(rng, 1500, "uniform")
    preds = [
        PredictionSet(name, word_probs=tuple(tuple(float(p) for p in row) for row in rows))
        for name, rows, _ in gen.make_systems(rng, wide, 10)
    ]
    gold = [[Tag.BAD if b else Tag.OK for b in row] for row in wide.word_bad]
    long = gen.make_corpus(rng, 300, "long")
    pairs = [(Sentence(tuple(m)), Sentence(tuple(p))) for m, p in zip(long.mt, long.pe)]

    def numpy_block():
        ensemble.fit_word_ensemble(preds, gold, Stream.WORDS, max_cycles=1)

    def python_block():
        for mt, pe in pairs:
            labeler.align_edit(mt, pe)

    return numpy_block, python_block


def _spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=180.0)
    parser.add_argument("--loop", type=int, default=probe.LOOP, help="probe loop iterations")
    parser.add_argument("--window", type=int, default=10, help="block pairs per window")
    args = parser.parse_args(argv)

    numpy_block, python_block = _blocks()
    pairs = []  # (numpy seconds, numpy samples, python seconds, python samples)
    with probe.SpeedProbe(args.loop) as speed:
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            row = []
            for block in (numpy_block, python_block):
                speed.take()
                start = time.perf_counter()
                block()
                row += [time.perf_counter() - start, speed.take()]
            pairs.append(row)

    windows = []
    for i in range(0, len(pairs) - args.window + 1, args.window):
        chunk = pairs[i:i + args.window]
        samples = [s for row in chunk for s in row[1] + row[3]]
        windows.append((sum(r[0] for r in chunk), sum(r[2] for r in chunk),
                        statistics.median(samples)))
    biases = [
        statistics.median(row[1]) / statistics.median(row[3])
        for row in pairs if row[1] and row[3]
    ]
    result = {"loop": args.loop, "pairs": len(pairs), "windows": len(windows),
              "bias": statistics.median(biases),
              "probe_spread": _spread([w[2] for w in windows])}
    for k, kind in enumerate(("numpy", "python")):
        raw = [w[k] for w in windows]
        result[kind] = {
            "raw_spread": _spread(raw),
            "nominal_spread": _spread([probe.at_nominal(w[k], w[2]) for w in windows]),
            "corr_raw_probe": statistics.correlation(raw, [w[2] for w in windows]),
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
