"""Sectioned key/value configuration for the CLI.

Every default carries an annotation: BASELINE marks values that mirror the
reference evaluation setup this simulator targets, CHOICE marks documented
implementation decisions. Overrides are flat `section.key=value` strings.
DEFAULT_CONFIG is the one home of every default (the bits-per-PRB ladder is
`settings.DEFAULT_BITS_PER_PRB`); the setup dataclasses have none.
`_from_section` builds each of them: a field holds the key of its name in
that key's unit (`slot_time_us`), and its SI value is a property (`slot_s`).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import fields
from typing import get_type_hints

from .access import CsmaParams, SpsParams
from .channel import PropagationConfig
from .engine import RunConfig, SimulationSetup
from .errors import ConfigError
from .scenario import RoadConfig, TrafficConfig
from .settings import (CV2xSettings, Ieee80211pSettings, PrbTable,
                       DEFAULT_BITS_PER_PRB, resolve_nprb)

DEFAULT_CONFIG = """\
[run]
technology = 11p
; 11p | cv2x
seed = 1
sim_duration_s = 10.0
warmup_s = 1.0
max_range_m = 1000.0
; CHOICE: receiver cut-off; contribution beyond it is below noise
mobility_step_ms = 100.0
; CHOICE: position/shadowing refresh cadence; at least one frame's airtime

[reception]
mode = step
; step | curve
threshold_source = curve
; curve | model | explicit: checked in every mode, used in step mode
beta = 0.5
; BASELINE: best target PER for the step approximation
curve_file =
model_file =
threshold_db =

[road]
layout = highway
lanes_per_direction = 3
; BASELINE: 3+3 lanes
lane_width_m = 4.0
; BASELINE
road_length_m = 2000.0
; CHOICE: desk-scale strip; density is what matters
density_vpk = 100.0
; BASELINE operating point (100, 96); the other is (400, 56)
mean_speed_kmh = 96.0
; BASELINE pair with density above
speed_std_kmh = 3.0
; CHOICE: Gaussian spread, truncated at 3 sigma
wrap_around = true
; CHOICE: torus road avoids edge effects
placement = poisson
; poisson | fixed_count
corner_los_m = 8.0
; CHOICE: urban_grid corner visibility half-width

[traffic]
payload_bytes = 350
; BASELINE
generation_period_ms = 100.0
; simplified generation rule: fixed-size periodic, random phase

[propagation]
carrier_hz = 5.9e9
; BASELINE: ITS band
model = winner_b1_los
; winner_b1_los: each link on the path-loss branch of the layout's LOS
; classification (every highway link is LOS); winner_b1_nlos: every link on
; the NLOS branch
shadowing_std_db = 3.0
; BASELINE quotes "variance 3 dB"; read as standard deviation by default
shadowing_is_variance = false
; set true to read shadowing_std_db as a variance instead
decorrelation_m = 25.0
; BASELINE
antenna_gain_dbi = 3.0
; BASELINE
noise_figure_db = 6.0
; BASELINE
tx_power_density_dbm_mhz = 13.0
; BASELINE
bandwidth_hz = 10e6
; BASELINE
antenna_height_m = 1.5
; CHOICE: sets the dual-slope breakpoint
los_a = 22.7
los_b = 41.0
los_c = 20.0
nlos_a = 36.7
nlos_b = 48.0
nlos_c = 26.0
; CHOICE: street-model coefficients a*log10(d)+b+c*log10(fc/5GHz)

[ieee80211p]
mcs_index = 2
; BASELINE: QPSK, coding rate 1/2
t_aifs_us = 110.0
; BASELINE
t_preamble_us = 40.0
; preamble plus signal field
t_symbol_us = 8.0
cw_max = 15
; BASELINE
slot_time_us = 13.0
; CHOICE: standard 10 MHz slot
sense_decodable_dbm = -85.0
; BASELINE: known-signal sensing threshold
sense_energy_dbm = -65.0
; BASELINE: unknown-signal sensing threshold

[cv2x]
mcs_index = 7
; BASELINE: QPSK, coding rate ~0.5
n_subch = 5
; BASELINE
n_prb_subch = 10
; BASELINE
t_tti_ms = 1.0
; BASELINE: LTE sidelink TTI
n_prb_pkt =
; blank: resolved from the PRB table for (mcs_index, payload)
control_overhead_prbs = 2
; CHOICE: adjacent control-channel footprint per packet
keep_probability = 0.5
; BASELINE
t1_ms = 1.0
; BASELINE
t2_ms = 100.0
; BASELINE
sensing_window_ms = 1000.0
; CHOICE: standard-derived sensing history length
rsrp_exclude_dbm = -110.0
; CHOICE: standard-derived exclusion start
rsrp_relax_step_db = 3.0
; CHOICE: standard-derived relaxation step
best_fraction = 0.2
; CHOICE: standard-derived candidate share
counter_min = 5
counter_max = 15
; CHOICE: reselection counter range for 100 ms periodicity

[metrics]
prr_bin_width_m = 25.0
; CHOICE: bin width unstated in the evaluated campaign
prr_max_distance_m = 600.0
; CHOICE
ipg_range_m = 150.0
; BASELINE: gaps tracked within this range only
ipg_grid_step_s = 0.01
ipg_grid_max_s = 1.5
"""


def new_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                     interpolation=None)


def load_config(path: str | None = None, overrides=()) -> configparser.ConfigParser:
    """Defaults, optionally layered with a file and `section.key=value` overrides."""
    cp = new_parser()
    cp.read_string(DEFAULT_CONFIG)
    if path is not None:
        read = new_parser()
        try:
            found = read.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not found:
            raise ConfigError(f"config file not found: {path}")
        for section in read.sections():
            # PRB table rows and a manifest's [meta] are not among the defaults
            if section not in ("prb_table", "meta"):
                _check_known(cp, section, read[section], f" in {path}")
        cp.read_dict(read)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        section, option = key.split(".", 1)
        section, option = section.strip(), option.strip()
        if section == "prb_table":  # any row; `build_prb_table` checks it
            if not cp.has_section(section):
                cp.add_section(section)
        else:
            _check_known(cp, section, [option])
        cp[section][option] = value.strip()
    return cp


def _check_known(cp, section, options, where=""):
    """Reject a section or key that the defaults do not have."""
    if not cp.has_section(section):
        raise ConfigError(f"unknown config section {section!r}{where}")
    for option in options:
        if option not in cp[section]:
            raise ConfigError(f"unknown config key {section}.{option}{where}")


def _get(cp, section, key, conv, allow_blank=False):
    raw = cp.get(section, key, fallback=None)
    if raw is None:
        raise ConfigError(f"missing config key {section}.{key}")
    raw = raw.strip()
    if raw == "":
        if allow_blank:
            return None
        raise ConfigError(f"config key {section}.{key} must not be empty")
    try:
        value = conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    # NaN and infinities make no quantity: a horizon of inf never ends
    if conv is float and not math.isfinite(value):
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}")
    return value


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def build_prb_table(cp) -> PrbTable:
    bits = dict(DEFAULT_BITS_PER_PRB)
    if cp.has_section("prb_table"):
        for key, value in cp.items("prb_table"):
            try:
                mcs, per_prb = int(key), int(value)
            except ValueError as exc:
                raise ConfigError(f"bad [prb_table] row '{key} = {value}': "
                                  "MCS index and bits per PRB must be integers") from exc
            if per_prb <= 0:
                raise ConfigError(f"bad [prb_table] row '{key} = {value}': "
                                  "bits per PRB must be > 0")
            bits[mcs] = per_prb
    return PrbTable(bits_per_prb=bits,
                    control_overhead_prbs=_get(cp, "cv2x", "control_overhead_prbs", int))


def theta_for(cp, technology: str, mcs: int | None = None, payload: int | None = None):
    """The config's settings vector for `technology`; a given MCS or payload overrides it.

    An overridden MCS or payload re-resolves the C-V2X PRB count, since a
    configured n_prb_pkt was sized for the configured packet.
    """
    configured = mcs is None and payload is None
    if payload is None:
        payload = _get(cp, "traffic", "payload_bytes", int)
    if technology == "11p":
        given = {} if mcs is None else {"mcs_index": mcs}
        return _from_section(cp, "ieee80211p", Ieee80211pSettings, payload_bytes=payload, **given)
    if technology == "cv2x":
        if mcs is None:
            mcs = _get(cp, "cv2x", "mcs_index", int)
        n_prb_pkt = None
        if configured:
            n_prb_pkt = _get(cp, "cv2x", "n_prb_pkt", int, allow_blank=True)
        if n_prb_pkt is None:
            n_prb_pkt = resolve_nprb(mcs, payload, build_prb_table(cp))
        return _from_section(cp, "cv2x", CV2xSettings, payload_bytes=payload,
                             n_prb_pkt=n_prb_pkt, mcs_index=mcs)
    raise ConfigError(f"unknown technology {technology!r}")


def _from_section(cp, section, cls, **given):
    """A `cls` with each field not `given` read from the key of its name in
    `section`, or in the one of a tuple of sections that has it."""
    sections = (section,) if isinstance(section, str) else section
    hints = get_type_hints(cls)  # a field's type is its key's converter
    values = {}
    for f in fields(cls):
        if f.name not in given:
            home = next((s for s in sections if cp.has_option(s, f.name)), sections[0])
            conv = _bool if hints[f.name] is bool else hints[f.name]
            values[f.name] = _get(cp, home, f.name, conv)
    return cls(**values, **given)


def build_setup(cp) -> SimulationSetup:
    technology = _get(cp, "run", "technology", str)
    theta = theta_for(cp, technology)
    # the section of the technology that does not run is checked too
    theta_for(cp, "cv2x" if technology == "11p" else "11p")
    return SimulationSetup(
        run=_from_section(cp, ("run", "metrics"), RunConfig, theta=theta),
        road=_from_section(cp, "road", RoadConfig),
        traffic=_from_section(cp, "traffic", TrafficConfig),
        propagation=_from_section(cp, "propagation", PropagationConfig),
        csma=_from_section(cp, "ieee80211p", CsmaParams),
        sps=_from_section(cp, "cv2x", SpsParams),
        prb_table=build_prb_table(cp),
    )
