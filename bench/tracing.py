"""Per-layer timing, installed from outside the program.

The tracer replaces public functions and methods of the signpipe modules
with timing wrappers, under the name each caller looks up: `cli` binds
`read_pgm` and `read_landmark_csv` by name, so those are wrapped in `cli`;
everything else is called through its module. CNN layers are wrapped per
instance, as `build_model` creates them. Nothing under `src/` changes, and
untraced runs never import this module's wrappers.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from signpipe import cli, cnn, ensemble, forest, textcorrect, videosynth


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    items: int = 0


def _rows(x) -> int:
    return len(np.atleast_2d(np.asarray(x)))


def _frames(x) -> int:
    arr = np.asarray(x)
    return 1 if arr.ndim == 3 else len(arr)


class Tracer:
    """Wraps the layers' entry points and sums calls, seconds and items."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.active = False
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def on(self):
        """Record only inside this block: the timed operations, not set-up
        or the checks that read the outputs back."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _record(self, key: str, seconds: float, items: int = 0) -> None:
        s = self.stats[key]
        s.calls += 1
        s.seconds += seconds
        s.items += items

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, wrapper)

    def wrap(self, owner, name: str, key_of, items_of=None) -> None:
        """Time owner.name; key_of(args) names the record and
        items_of(args, result) counts the items the call handled."""
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            key = key_of(args)
            start = time.perf_counter()
            result = original(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self._record(key, elapsed, items_of(args, result) if items_of else 0)
            return result

        self._patch(owner, name, wrapper)

    def count(self, owner, name: str, key: str) -> None:
        """Count calls of owner.name without timing them (hot inner calls)."""
        original = getattr(owner, name)
        stat = self.stats[key]

        def wrapper(*args, **kwargs):
            if self.active:
                stat.calls += 1
            return original(*args, **kwargs)

        self._patch(owner, name, wrapper)

    def install(self) -> "Tracer":
        const = lambda key: (lambda args: key)  # noqa: E731
        self.wrap(cli, "read_landmark_csv", const("io.read_landmark_csv"))
        self.wrap(cli, "read_pgm", const("io.read_pgm"))
        self.wrap(forest, "load_forest", const("forest.load"))
        self.wrap(forest, "save_forest", const("forest.save"))
        self.wrap(forest, "train_forest", const("forest.fit"), lambda a, r: len(r.trees))
        for name in ("predict_proba", "predict_class"):
            self.wrap(
                forest, name,
                lambda a: "forest.predict_row" if _rows(a[1]) == 1 else "forest.predict_batch",
                lambda a, r: _rows(a[1]),
            )
        self.wrap(cnn, "load_cnn", const("cnn.load"))
        for name in ("predict_proba", "predict"):
            self.wrap(
                cnn, name,
                lambda a: "cnn.predict_frame" if _frames(a[1]) == 1 else "cnn.predict_batch",
                lambda a, r: _frames(a[1]),
            )
        self.wrap(cnn, "train", const("cnn.train"), lambda a, r: len(r["val_loss"]))
        self.wrap(cnn.Adam, "step", const("cnn.adam_step"))
        self._wrap_build_model()
        self.wrap(ensemble, "combine", const("ensemble.combine"))
        self.wrap(ensemble, "decode_stream", const("ensemble.decode"))
        self.wrap(textcorrect, "correct_offline", const("textcorrect.correct"))
        self.wrap(textcorrect, "word_candidates", const("textcorrect.word_candidates"))
        self.count(textcorrect, "damerau_levenshtein", "textcorrect.distance")
        self.wrap(
            videosynth, "interpolate_sequence", const("video.interpolate"),
            lambda a, r: len(r.frames),
        )
        self.wrap(
            videosynth, "synthesize_frame",
            lambda a: "video.synthesize",
            lambda a, r: int(not np.array_equal(a[0], a[1])),
        )
        self.wrap(
            videosynth, "write_sequence", const("video.write"), lambda a, r: len(a[0].frames)
        )
        return self

    def _wrap_build_model(self) -> None:
        original = cnn.build_model
        tracer = self

        def build_model(*args, **kwargs):
            model = original(*args, **kwargs)
            seen: dict[str, int] = defaultdict(int)
            for layer in model.layers:
                kind = {cnn.Conv2D: "conv", cnn.MaxPool2D: "pool", cnn.Dense: "dense"}.get(
                    type(layer)
                )
                if kind is None:
                    continue
                seen[kind] += 1
                tracer._wrap_layer(layer, f"cnn.{kind}{seen[kind]}")
            return model

        self._patch(cnn, "build_model", build_model)

    def _wrap_layer(self, layer, name: str) -> None:
        """Time training-mode forward and backward passes, one batch per call."""
        forward, backward = layer.forward, layer.backward

        def traced_forward(x, train):
            if not (train and self.active):
                return forward(x, train)
            start = time.perf_counter()
            out = forward(x, train)
            self._record(f"{name}.fwd", time.perf_counter() - start)
            return out

        def traced_backward(dy):
            if not self.active:
                return backward(dy)
            start = time.perf_counter()
            out = backward(dy)
            self._record(f"{name}.bwd", time.perf_counter() - start)
            return out

        layer.forward, layer.backward = traced_forward, traced_backward

    def close(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()

    # ------------------------------------------------------------ metrics

    def _per_call(self, key: str, scale: float) -> float:
        s = self.stats.get(key)
        return s.seconds / s.calls * scale if s and s.calls else 0.0

    def _per_item(self, key: str, scale: float) -> float:
        s = self.stats.get(key)
        return s.seconds / s.items * scale if s and s.items else 0.0

    def _calls(self, key: str) -> int:
        s = self.stats.get(key)
        return s.calls if s else 0

    def metrics(self, ops: int, chars: int) -> dict[str, float]:
        """Per-layer figures over the traced operations; 0 where the workload
        never calls the layer. `ops` and `chars` count the operations and the
        signed characters they handled."""
        st = self.stats
        synth = st.get("video.synthesize", Stat())
        read_s = sum(st[k].seconds for k in ("io.read_landmark_csv", "io.read_pgm") if k in st)
        corrections = self._calls("textcorrect.correct")
        m = {
            "io.stream_read_ms": read_s / ops * 1e3 if ops else 0.0,
            "io.landmark_csv_read_ms": self._per_call("io.read_landmark_csv", 1e3),
            "io.pgm_read_us_per_image": self._per_call("io.read_pgm", 1e6),
            "forest.load_ms": self._per_call("forest.load", 1e3),
            "forest.save_ms": self._per_call("forest.save", 1e3),
            "forest.fit_ms_per_tree": self._per_item("forest.fit", 1e3),
            "forest.predict_batch_us_per_row": self._per_item("forest.predict_batch", 1e6),
            "forest.predict_row_ms": self._per_call("forest.predict_row", 1e3),
            "cnn.load_ms": self._per_call("cnn.load", 1e3),
            "cnn.predict_batch_us_per_frame": self._per_item("cnn.predict_batch", 1e6),
            "cnn.predict_frame_ms": self._per_call("cnn.predict_frame", 1e3),
            "cnn.epoch_s": self._per_item("cnn.train", 1.0),
            "cnn.adam_step_ms": self._per_call("cnn.adam_step", 1e3),
            "ensemble.combine_us": self._per_call("ensemble.combine", 1e6),
            "ensemble.decode_ms": self._per_call("ensemble.decode", 1e3),
            "textcorrect.correct_ms": self._per_call("textcorrect.correct", 1e3),
            "textcorrect.word_candidates_ms": self._per_call("textcorrect.word_candidates", 1e3),
            "textcorrect.distance_calls_per_phrase": (
                self._calls("textcorrect.distance") / corrections if corrections else 0.0
            ),
            "video.interpolate_ms_per_frame": self._per_item("video.interpolate", 1e3),
            "video.synthesize_ms": self._per_call("video.synthesize", 1e3),
            "video.synthesize_calls_per_char": synth.calls / chars if chars else 0.0,
            "video.useful_synthesize_calls_per_char": synth.items / chars if chars else 0.0,
            "video.useful_synth_ratio": synth.items / synth.calls if synth.calls else 0.0,
            "video.write_ms_per_frame": self._per_item("video.write", 1e3),
        }
        for kind, count in (("conv", 3), ("pool", 3), ("dense", 2)):
            for i in range(1, count + 1):
                for direction in ("fwd", "bwd"):
                    key = f"cnn.{kind}{i}.{direction}"
                    m[f"{key}_ms"] = self._per_call(key, 1e3)
        return m


PER_LAYER_UNITS = {
    "io.stream_read_ms": "ms",
    "io.landmark_csv_read_ms": "ms",
    "io.pgm_read_us_per_image": "us",
    "forest.load_ms": "ms",
    "forest.save_ms": "ms",
    "forest.fit_ms_per_tree": "ms",
    "forest.predict_batch_us_per_row": "us",
    "forest.predict_row_ms": "ms",
    "cnn.load_ms": "ms",
    "cnn.predict_batch_us_per_frame": "us",
    "cnn.predict_frame_ms": "ms",
    "cnn.epoch_s": "s",
    "cnn.adam_step_ms": "ms",
    "ensemble.combine_us": "us",
    "ensemble.decode_ms": "ms",
    "textcorrect.correct_ms": "ms",
    "textcorrect.word_candidates_ms": "ms",
    "textcorrect.distance_calls_per_phrase": "count",
    "video.interpolate_ms_per_frame": "ms",
    "video.synthesize_ms": "ms",
    "video.synthesize_calls_per_char": "count",
    "video.useful_synthesize_calls_per_char": "count",
    "video.useful_synth_ratio": "ratio",
    "video.write_ms_per_frame": "ms",
    **{
        f"cnn.{kind}{i}.{d}_ms": "ms"
        for kind, count in (("conv", 3), ("pool", 3), ("dense", 2))
        for i in range(1, count + 1)
        for d in ("fwd", "bwd")
    },
}
