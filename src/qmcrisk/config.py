"""Text to values: one rule ``rule(raw, key)`` for each spelling a flag or
config key takes, ``key`` heading its ConfigError.  The CLI's flags and the
config readers call the same rules, so ``--seed 0x10`` and ``master_seed =
0x10`` both read 16; the types the rules feed check every range.  A config
section has a key table, key -> (rule, field of the section's type); a key
that is not set leaves its field's default.
"""

from __future__ import annotations

import configparser
import re
from typing import Dict, Mapping, Tuple

from .errors import ConfigError
from .experiments import ExperimentConfig, TruthSpec
from .lowdisc import DEFAULT_BIT_DEPTH
from .models import ExpModel, Model, SanModel


def parse_int(raw: str, key: str) -> int:
    """An integer: 2^k (k >= 0), an integer literal as Python writes it
    (16, 0x10, 1_000), or a float literal with an integer value (1e8,
    1.6e1, 010).  2^k for k > 63 reads as 2^63, past every range a count
    may take, so no k-bit integer is ever built."""
    token = raw.strip()
    try:
        if token.startswith("2^"):
            k = int(token[2:])
            if k < 0:
                raise ValueError
            return 1 << min(k, 63)
        try:
            return int(token, 0)
        except ValueError:
            value = float(token)
        if value != int(value):
            raise ValueError
        return int(value)
    except (ValueError, OverflowError):  # int() of a NaN or an infinity
        raise ConfigError(f"{key}: expected an integer, 2^k or 1e8-style literal, got {raw!r}") from None


def parse_number(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def parse_list(raw: str, key: str) -> Tuple[str, ...]:
    """The tokens of a list, with commas or spaces between them."""
    return tuple(raw.replace(",", " ").split())


def parse_numbers(raw: str, key: str) -> Tuple[float, ...]:
    try:
        return tuple(float(token) for token in parse_list(raw, key))
    except ValueError:
        raise ConfigError(f"{key}: expected a list of numbers") from None


def parse_grid(raw: str, key: str) -> Tuple[int, ...]:
    """A list of sample sizes; a token a..b, a and b powers of two, stands
    for the powers of two from a to b."""
    grid = []
    for token in parse_list(raw, key):
        if ".." not in token:
            grid.append(parse_int(token, key))
            continue
        first, last = token.split("..", 1)
        a, b = parse_int(first, key), parse_int(last, key)
        if a < 1 or a & (a - 1) or b & (b - 1) or b < a or b > 1 << DEFAULT_BIT_DEPTH:
            raise ConfigError(f"{key}: bad range {token!r}")
        grid.extend(1 << k for k in range(a.bit_length() - 1, b.bit_length()))
    return tuple(grid)


_EXPERIMENT_TABLE = {
    "p": (parse_number, "p"),
    "samplers": (parse_list, "samplers"),
    "n_grid": (parse_grid, "n_grid"),
    "replications": (parse_int, "replications"),
    "master_seed": (parse_int, "master_seed"),
}
# the [experiment] keys that set a TruthSpec field
_TRUTH_TABLE = {
    "truth": (lambda raw, key: raw.strip().lower(), "kind"),
    "truth_v": (parse_number, "v"),
    "truth_c": (parse_number, "c"),
    "truth_n": (parse_int, "n"),
    "truth_seed": (parse_int, "seed"),
}
# model kind -> (model type, key table), ``kind`` aside
_MODEL_TABLES = {
    "san-15": (SanModel, {"rates": (parse_numbers, "rates")}),
    "exp": (ExpModel, {"lambda": (parse_number, "rate")}),
}


def _fields(section: Mapping[str, str], table: Dict, where: str) -> Dict[str, object]:
    """Field -> value for the keys of ``section``, each read by its rule in
    ``table``; ConfigError for any key the table lacks, before any is read."""
    for key in section:
        if key not in table:
            raise ConfigError(f"{key}: unknown key {where}")
    return {table[key][1]: table[key][0](raw, key) for key, raw in section.items()}


def _document(text: str, missing: str) -> Tuple[configparser.ConfigParser, Model]:
    """The sections of key = value config text, headerless text going to [model], and the
    model of its [model] section; ConfigError ``model: <missing>`` if it has none."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",), comment_prefixes=("#",))
    if not re.search(r"^\s*\[", text, flags=re.MULTILINE):
        text = "[model]\n" + text
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if not parser.has_section("model"):
        raise ConfigError(f"model: {missing}")
    section = parser["model"]
    if "kind" not in section:
        raise ConfigError("kind: missing required key")
    kind = section["kind"].strip().lower()
    if kind not in _MODEL_TABLES:
        raise ConfigError(f"kind: unknown model kind {kind!r} (expected one of: {', '.join(sorted(_MODEL_TABLES))})")
    cls, table = _MODEL_TABLES[kind]
    return parser, cls(**_fields({k: v for k, v in section.items() if k != "kind"}, table, f"for model kind {kind!r}"))


def load_model(text: str) -> Model:
    """Parse a model config document: flat keys or a [model] section."""
    return _document(text, "config must contain a [model] section")[1]


def load_experiment(text: str) -> ExperimentConfig:
    """Parse an experiment config: an [experiment] section plus a [model] section.

    A document with only a [model] section runs with the experiment
    defaults (p=0.1, all samplers, N = 2^8..2^16, R=100).
    """
    parser, model = _document(text, "experiment config needs a [model] section")
    section = parser["experiment"] if parser.has_section("experiment") else {}
    fields = _fields(section, {**_EXPERIMENT_TABLE, **_TRUTH_TABLE}, "in [experiment]")
    truth = TruthSpec(**{field: fields.pop(field) for _, field in _TRUTH_TABLE.values() if field in fields})
    return ExperimentConfig(model=model, truth=truth, **fields)
