"""Run configuration: one flat record of every tunable, with file loading.

Config files use one `key = value` line per setting, `#` comments, and the
same key names as the RunConfig fields. Command-line flags override file
values, which override the defaults.

RunConfig is the only declaration of a setting: its default is the library
constant it sets, its parser follows from its annotation (FIELD_PARSERS),
and its command-line help and metavar sit in the field's metadata.
parse_items reads every comma-separated list, of a setting or a flag.
Each setting is checked on its own, except that num_supra_states may not
exceed num_states (see emocue.supra).
"""

import math
from dataclasses import dataclass, field, fields

from . import hmm, supra
from .corpus import SplitProtocol, sentence_set
from .errors import _utf8
from .supra import FusionConfig


_ITEM_KINDS = {float: "a number", int: "an integer", str: "a name"}


def parse_items(text: str, parse, what: str) -> tuple:
    """The comma-separated items of text, stripped and read by parse (float,
    int or str). An empty or unparsable item raises ValueError naming what
    (a flag or a setting) and the item's 1-based position."""
    items = []
    for position, item in enumerate(text.split(","), start=1):
        try:
            if not item.strip():
                raise ValueError("empty item")
            items.append(parse(item.strip()))
        except ValueError:
            raise ValueError(f"{what} item {position} ({item!r}) is not "
                             f"{_ITEM_KINDS[parse]}") from None
    return tuple(items)


def _parse_sentences(text: str, what: str = "list") -> tuple[int, ...]:
    return sentence_set(what, parse_items(text, int, what))


# The parser of a setting's text, by the setting's annotation.
FIELD_PARSERS = {float: float, int: int, tuple[int, ...]: _parse_sentences}

_SPLIT = SplitProtocol()


def _setting(default, help: str, metavar: str | None = None):
    return field(default=default, metadata={"help": help, "metavar": metavar})


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the pipeline, defaulting to the standard setup:
    9-state/10-mixture acoustic models, 3 supra states of 3 mixtures,
    sentences 1-4 for training and 5-8 for testing, and an even score blend
    (alpha 0.5).

    A text value of any field is parsed by its FIELD_PARSERS entry, a list
    naming its flag (--train-sentences). A sentence set given as a tuple is
    checked by SplitProtocol; either way corpus.sentence_set refuses an item
    that is not an integer or repeats one, and sorts the set."""

    alpha: float = _setting(FusionConfig().alpha, "fusion weight in [0, 1]")
    num_states: int = _setting(9, "acoustic model states")
    num_mixtures: int = _setting(10, "mixture components per acoustic state")
    num_supra_mixtures: int = _setting(
        supra.DEFAULT_SUPRA_MIXTURES,
        "mixture components per suprasegmental state")
    num_supra_states: int = _setting(supra.DEFAULT_SUPRA_STATES,
                                     "suprasegmental model states")
    train_sentences: tuple[int, ...] = _setting(
        _SPLIT.train_sentences, "sentence indices of the training split",
        "S,S,...")
    test_sentences: tuple[int, ...] = _setting(
        _SPLIT.test_sentences, "sentence indices of the test split",
        "S,S,...")
    variance_floor: float = _setting(hmm.VARIANCE_FLOOR,
                                     "minimum Gaussian variance")
    em_tol: float = _setting(hmm.EM_TOL,
                             "relative log-likelihood improvement to stop EM")
    em_max_iters: int = _setting(hmm.EM_MAX_ITERS, "EM iteration cap")
    seed: int = _setting(0, "generator seed")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str):
                object.__setattr__(self, f.name, _parse_sentences(
                    value, "--" + f.name.replace("_", "-"))
                    if f.type == tuple[int, ...]
                    else FIELD_PARSERS[f.type](value))
        self.fusion  # FusionConfig checks alpha
        if self.num_states < 1 or self.num_mixtures < 1:
            raise ValueError("num_states and num_mixtures must be >= 1")
        if self.num_supra_mixtures < 1:
            raise ValueError("num_supra_mixtures must be >= 1")
        if not 1 <= self.num_supra_states <= self.num_states:
            raise ValueError(f"num_supra_states must lie in [1, num_states "
                             f"{self.num_states}], got "
                             f"{self.num_supra_states}")
        for name in ("variance_floor", "em_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails it
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{getattr(self, name)}")
        if self.em_max_iters < 1:
            raise ValueError("em_max_iters must be >= 1")
        # SplitProtocol checks the sentence sets and casts their items
        for name, value in vars(self.protocol).items():
            object.__setattr__(self, name, value)

    @property
    def protocol(self) -> SplitProtocol:
        return SplitProtocol(train_sentences=self.train_sentences,
                             test_sentences=self.test_sentences)

    @property
    def fusion(self) -> FusionConfig:
        return FusionConfig(alpha=self.alpha)


_FIELDS = {f.name: f for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Read `key = value` settings; returns a field-name -> value dict."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh, _utf8(path, ValueError):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            try:
                values[key] = FIELD_PARSERS[_FIELDS[key].type](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: "
                                 f"{exc}") from exc
    return values


def make_config(config_path=None, only=None, **overrides) -> RunConfig:
    """Layer defaults, an optional config file, and explicit overrides.

    Only the file's settings named in only (when given) are read.
    Overrides with value None are ignored, so optional command-line flags
    can be passed through unconditionally.
    """
    values = parse_config_file(config_path) if config_path else {}
    values = {k: v for k, v in values.items() if only is None or k in only}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ValueError(f"unknown setting {key!r}")
        values[key] = value
    return RunConfig(**values)
