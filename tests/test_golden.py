"""Byte-identity guard: short `simulate` runs keep their recorded outputs.

The digests pin `prr.csv` and `ipg_ccdf.csv` of small runs covering both
technologies, both reception modes and the NLOS path-loss branch (the
urban_grid layout). Two more run dense C-V2X at MCS 11, whose frames start
on three subchannels and share part of their PRBs across starts. A change to the SINR arithmetic, to the order in which
reception decisions draw from the RNG, or to the PRR/IPG bookkeeping can
move them. A change in the last bits only may leave them unchanged: the
refresh's sqrt distances, folded path-loss constants and exp conversion
to mW differ from `np.hypot`, the unfolded sums and 10 ** (x / 10) in the
last bits, and every digest holds under them. So a change is
output-neutral only when every digest below passes. Further pins cover
`mae.csv` of short 802.11p and C-V2X `select-beta` runs, all five output
files of a short 802.11p and a short C-V2X `validate`, and 802.11p runs
whose warmup and mobility step are not aligned. Re-record only for a change
that is meant to move simulation outputs.

The MAC-trace digests pin, for short 802.11p highway runs at three
densities, the full list of transmission starts (time, station, sensed
busy) besides the two output files: any change to the CSMA state machine,
its random draws or the order of same-instant events moves them. Two more
lower the energy threshold at 400 veh/km, so that carrier sense keeps the
energy sum: at -77 dBm about half the frame edges keep it (and it never
decides, so the outputs are the default run's), at -84 dBm every edge keeps
it and it often decides. The SPS
digests pin, for four short C-V2X highway runs, the full list of resource
selections besides the two output files: at 100 and at 400 veh/km (many
vehicles selecting in one TTI), each on the default subchannel grid and on a
single 50-PRB subchannel, where numpy sums the sensing-window projection
pairwise instead of in order. A change to the projection's last bits can
move them, and a change to the relaxed threshold or to the selection draws
does. One more pins a dense C-V2X run whose frames start on seven
subchannels, each 4 subchannels wide, in both reception modes (its
selections in step mode): most of its TTIs leave some starts empty.

The abstraction pins cover the `fit-alpha` model files of both bundled
scenarios and the `derive-threshold` report of an 802.11p MCS and a C-V2X
payload other than the defaults: any change to how a settings vector is
built from the config and the command line, or to its airtime and
throughput, moves them.

The bundle pin regenerates every shipped curve file with
`curvegen.generate_bundles` and compares it byte for byte: every digest
above reads these files, so the generator must keep writing them.
"""

import hashlib
import os

import pytest

from conftest import CURVE_DIR, curve_path

from v2xsim import config as cfgmod
from v2xsim.curvegen import generate_bundles
from v2xsim.cli import build_reception, ipg_grid, main, write_ipg_csv, write_prr_csv
from v2xsim.engine import TraceLog, run

CASES = {
    # name: (technology, reception mode, layout, curve file)
    "11p-step-highway": ("11p", "step", "highway", "highway_los_11p_mcs2_350B.csv"),
    "11p-curve-highway": ("11p", "curve", "highway", "highway_los_11p_mcs2_350B.csv"),
    "cv2x-step-highway": ("cv2x", "step", "highway", "highway_los_cv2x_mcs7_350B.csv"),
    "cv2x-curve-highway": ("cv2x", "curve", "highway", "highway_los_cv2x_mcs7_350B.csv"),
    "cv2x-curve-crossing": ("cv2x", "curve", "urban_grid",
                            "crossing_nlos_cv2x_mcs7_350B.csv"),
}

DIGESTS = {
    "11p-step-highway": ("e4c4ce2a0e324096f065002deb3d7c3ef3972a3109d76d3d4649a306c6a21640",
                         "cd7bb8d291d1798b9e12523983671ce1dfdcc0c1918a1f1a56752af15a035c2d"),
    "11p-curve-highway": ("ee87401a8b86b3381dbc1deaedd4acb50f7080cb06e8c405f821ea9999e1c51c",
                          "100040b9f144e9981ce572974c9051e5585bac18c0e220a82b9ce54d445cd089"),
    "cv2x-step-highway": ("cca1ecb6a0d0c4830b63cfd04d6b9b3891c7e7787c7a120aef4fe63308720cb2",
                          "7265bbfa52d939fb5f913e755f0ba3f6947def7f5b3ca68553ab1a4e521e70cd"),
    "cv2x-curve-highway": ("96a7032101e36c65482bf0f34617a9827aafb2758e92fc37831cba4b8092fa2b",
                           "2cd44fd9e0d773c16a58005cb669496237b1e0f44946fe9406be79042119b4e3"),
    "cv2x-curve-crossing": ("5767d4c29407f8b6a948d0010a4caf20316b24b16fb276044ba5c24e3a6287d5",
                            "cfe4f51a1db5c7747325671825025afa112d35977653c6fc897498388ad598bf"),
}


def simulate(name, out):
    tech, mode, layout, curve = CASES[name]
    sets = {
        "run.technology": tech,
        "run.seed": 11,
        "run.sim_duration_s": 2.0,
        "run.warmup_s": 0.5,
        "reception.mode": mode,
        "reception.curve_file": curve_path(curve),
        "road.layout": layout,
        "road.density_vpk": 100.0,
    }
    argv = ["simulate", "--out", str(out)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    return tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                 for f in ("prr.csv", "ipg_ccdf.csv"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_outputs_match_recorded_digests(name, tmp_path):
    assert simulate(name, tmp_path) == DIGESTS[name]


# MCS 11 at 350 B takes 22 PRBs, 24 with control: 3 of the 5 subchannels, so
# a frame starts on subchannel 0, 1 or 2, and at 400 veh/km most TTIs hold
# frames on all three, sharing 14 or 4 of their 24 PRBs
MULTI_START_CASES = {"cv2x-step-mcs11-dense": "step", "cv2x-curve-mcs11-dense": "curve"}

MULTI_START_DIGESTS = {
    "cv2x-step-mcs11-dense": (
        "71f921a75de250d25e13f4e20b98201a52925a9d6e25a6d3ff8046e5f7b5e5a1",
        "11bdfd00e1c2ea088a6e03a2b6491190650db333b5e48a5a04981558552b57dd"),
    "cv2x-curve-mcs11-dense": (
        "c83002c06fa3d15480a18cbb6ed1e17a4b25de2901cdf74527f4f415722c76c2",
        "f94b40ec8e880078516de6e425d5230e14d1a8d0c2ef42d8ab2b86f2a2cc5a02"),
}


@pytest.mark.parametrize("name", sorted(MULTI_START_CASES))
def test_dense_cv2x_on_three_first_subchannels_matches_recorded_digests(name, tmp_path):
    sets = {
        "run.technology": "cv2x",
        "run.seed": 13,
        "run.sim_duration_s": 1.0,
        "run.warmup_s": 0.3,
        "cv2x.mcs_index": 11,
        "reception.mode": MULTI_START_CASES[name],
        "reception.curve_file": curve_path("highway_los_cv2x_mcs11_350B.csv"),
        "road.density_vpk": 400.0,
        "road.mean_speed_kmh": 56.0,
        "road.placement": "fixed_count",
    }
    argv = ["simulate", "--out", str(tmp_path)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("prr.csv", "ipg_ccdf.csv"))
    assert got == MULTI_START_DIGESTS[name]


MAC_CASES = {
    # name: (density veh/km, reception mode, simulated seconds, energy threshold dBm)
    "11p-step-100": (100.0, "step", 1.0, None),
    "11p-step-400": (400.0, "step", 0.5, None),
    "11p-step-800": (800.0, "step", 0.25, None),
    "11p-curve-400": (400.0, "curve", 0.5, None),
    # 8 dB over the decodable threshold: the energy sum is kept from 3 frames
    # on air, so edges cross in and out of it; at 1 dB over, every edge keeps it
    "11p-step-400-energy-77": (400.0, "step", 0.5, -77.0),
    "11p-step-400-energy-84": (400.0, "step", 0.5, -84.0),
}

MAC_DIGESTS = {
    "11p-step-100": ("9f2ae8a41405701bea073ed4cd060756d22e7c547dcf367a94fee9f07905a0a8",
                     "107adac526b662c5173b4f8e01557106f7b98764b9f02e52c161aa361d884377"),
    "11p-step-400": ("167c7cf719ff4023f7d643f39dd4e5c3c3f3057470bfbf9c317c837b74c7be51",
                     "2df36989b27d80d5cfe7479b3cea11d6720bca438613ea4e1d9dc95a1fdaaedd"),
    "11p-step-800": ("77e2d26ebedeb160ed8de41f56b8eb21413b0de62fe784c0f8175ae87309b236",
                     "3d7c671ff7405ede25a00028a15d524b62bfef27b48a13114b7f6f58ee475951"),
    "11p-curve-400": ("167c7cf719ff4023f7d643f39dd4e5c3c3f3057470bfbf9c317c837b74c7be51",
                      "e421b63afa2ea9e6fc31b415672b871ab236c2c31a4d8def37c255ee2debaed7"),
    "11p-step-400-energy-77": ("167c7cf719ff4023f7d643f39dd4e5c3c3f3057470bfbf9c317c837b74c7be51",
                               "2df36989b27d80d5cfe7479b3cea11d6720bca438613ea4e1d9dc95a1fdaaedd"),
    "11p-step-400-energy-84": ("655fc79b381d783cbc4c9bc532183f40e144517963004992ec4e48ee0379fa17",
                               "3b9c5f602aa44e88566b597d544f6f6211912efcfc3e6a98b85115ec2a35547a"),
}


def simulate_traced(sets, out):
    """(trace, prr.csv + ipg_ccdf.csv digest) of one traced run."""
    cp = cfgmod.load_config(None, [f"{k}={v}" for k, v in sets.items()])
    trace = TraceLog()
    store = run(cfgmod.build_setup(cp), build_reception(cp), trace)
    write_prr_csv(str(out / "prr.csv"), store)
    write_ipg_csv(str(out / "ipg_ccdf.csv"), store, ipg_grid(cp))
    outputs = b"".join((out / f).read_bytes() for f in ("prr.csv", "ipg_ccdf.csv"))
    return trace, hashlib.sha256(outputs).hexdigest()


def digest_repr(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MAC_CASES))
def test_mac_trace_matches_recorded_digests(name, tmp_path):
    density, mode, duration, energy_dbm = MAC_CASES[name]
    sets = {} if energy_dbm is None else {"ieee80211p.sense_energy_dbm": energy_dbm}
    trace, outputs = simulate_traced({
        "run.technology": "11p",
        "run.seed": 23,
        "run.sim_duration_s": duration,
        "run.warmup_s": 0.1,
        "reception.mode": mode,
        "reception.curve_file": curve_path("highway_los_11p_mcs2_350B.csv"),
        "road.placement": "fixed_count",
        "road.density_vpk": density,
        **sets,
    }, tmp_path)
    assert (digest_repr(trace.tx_starts), outputs) == MAC_DIGESTS[name]


ONE_SUBCHANNEL = {"cv2x.n_subch": 1, "cv2x.n_prb_subch": 50}
# 400 veh/km over 1.2 s: about 8 vehicles select in one TTI during the first
# period, and many reselect at once later
DENSE = {"road.density_vpk": 400.0, "run.sim_duration_s": 1.2, "run.warmup_s": 0.3}

SPS_CASES = {
    # name: overrides of the 100 veh/km, 2.5 s run
    "cv2x-sps-default-grid": {},
    # one subchannel of depth-10 windows: numpy's pairwise summation case
    "cv2x-sps-one-subchannel": ONE_SUBCHANNEL,
    "cv2x-sps-dense-default-grid": DENSE,
    "cv2x-sps-dense-one-subchannel": {**DENSE, **ONE_SUBCHANNEL},
}

SPS_DIGESTS = {
    "cv2x-sps-default-grid": (
        "e4e3490939bb98b31852cd1b8c0935b8f362446d3459e64730463b3885e2ffd5",
        "0a2592755a48cebd60a125e020d37e47773240680b6497584890cf3283c7cd31"),
    "cv2x-sps-one-subchannel": (
        "b46800416ebf2312e5094f50cfa00352360dbe56f9903e39d951c90426d35cfb",
        "689dcd9291a120cd70c4cca1495c681041fdc62ac6cfabe03b923b3b0d793273"),
    "cv2x-sps-dense-default-grid": (
        "6b1981ed4edcc09a83ff1cd1706591d05c96a33eab9847010e9687e6ee65ca13",
        "5a0b78501ef53a64ad94c7021bc802ae8e893d723a654e605ee42a696b877645"),
    "cv2x-sps-dense-one-subchannel": (
        "c9d35618356f90b6f013ff7967e451da9b1f063c3c138204417759d279c9d865",
        "4c4556bab11a85abb0955ae362f71e94c1f361efba48bca891dcb2c831f75049"),
}


@pytest.mark.parametrize("name", sorted(SPS_CASES))
def test_sps_trace_matches_recorded_digests(name, tmp_path):
    trace, outputs = simulate_traced({
        "run.technology": "cv2x",
        "run.seed": 5,
        "run.sim_duration_s": 2.5,
        "run.warmup_s": 0.5,
        "reception.curve_file": curve_path("highway_los_cv2x_mcs7_350B.csv"),
        "road.placement": "fixed_count",
        "road.density_vpk": 100.0,
        **SPS_CASES[name],
    }, tmp_path)
    assert (digest_repr(trace.sps_selections), outputs) == SPS_DIGESTS[name]


# MCS 5 at 100 B takes 15 PRBs, 17 with control: 4 of 10 five-PRB subchannels,
# so a frame starts on one of 7 subchannels; with about 8 frames a TTI at
# 400 veh/km, most TTIs leave some starts empty
SEVEN_START_DIGESTS = {
    # reception mode: (SPS selection trace, prr.csv + ipg_ccdf.csv)
    "step": ("c47c42c99ec976e4150fb067e23ecd4464245f1573a893c980350a2c05df47b1",
             "24566e8a062e97506c36aad376a0b69bd25ad87bd27347e53127d45627153db8"),
    "curve": (None, "8f67bd8bf92bc3fb70855e86269ffaa713e0ec8dc42b2b1428efa4b0a063e21b"),
}


@pytest.mark.parametrize("mode", sorted(SEVEN_START_DIGESTS))
def test_dense_cv2x_on_seven_first_subchannels_matches_recorded_digests(mode, tmp_path):
    trace, outputs = simulate_traced({
        "run.technology": "cv2x",
        "run.seed": 17,
        "run.sim_duration_s": 1.0,
        "run.warmup_s": 0.3,
        "cv2x.n_subch": 10,
        "cv2x.n_prb_subch": 5,
        "cv2x.mcs_index": 5,
        "traffic.payload_bytes": 100,
        "reception.mode": mode,
        "reception.curve_file": curve_path("highway_los_cv2x_mcs5_350B.csv"),
        "road.density_vpk": 400.0,
        "road.mean_speed_kmh": 56.0,
        "road.placement": "fixed_count",
    }, tmp_path)
    selections, expected = SEVEN_START_DIGESTS[mode]
    if selections is not None:
        assert digest_repr(trace.sps_selections) == selections
    assert outputs == expected


SELECT_BETA_DIGEST = "a65d93a8b2895dbbef2227b1c6a30a63ef1195a7bbdebf898aaa3ed7acf85e86"


def short_command(command, tech, seed, curve, out):
    """Run a 0.6 s, 100 veh/km `select-beta` or `validate` into `out`."""
    sets = {
        "run.technology": tech,
        "run.seed": seed,
        "run.sim_duration_s": 0.6,
        "run.warmup_s": 0.15,
        "reception.curve_file": curve_path(curve),
        "road.placement": "fixed_count",
        "road.density_vpk": 100.0,
    }
    argv = [command, "--out", str(out)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0


def test_select_beta_mae_matches_recorded_digest(tmp_path):
    """One curve run and seven step runs of the 802.11p engine on one channel."""
    short_command("select-beta", "11p", 31, "highway_los_11p_mcs2_350B.csv", tmp_path)
    digest = hashlib.sha256((tmp_path / "mae.csv").read_bytes()).hexdigest()
    assert digest == SELECT_BETA_DIGEST


CV2X_SELECT_BETA_DIGEST = "f73b227d0defae3323ce6b5f02dab564388be11eaed21d1673f9564b88de6cd0"


def test_cv2x_select_beta_mae_matches_recorded_digest(tmp_path):
    short_command("select-beta", "cv2x", 43, "highway_los_cv2x_mcs7_350B.csv", tmp_path)
    digest = hashlib.sha256((tmp_path / "mae.csv").read_bytes()).hexdigest()
    assert digest == CV2X_SELECT_BETA_DIGEST


VALIDATE_DIGESTS = {
    "curve/prr.csv": "cdc1ca6d416cce1ad38cb8da05b3b513e434944a66b83df1cfcfc43e02811e3f",
    "curve/ipg_ccdf.csv": "cf32338825d368f21d58db65c62d667e7d88450f01a404137c20872292171dbf",
    "step/prr.csv": "61c8ef30d81aad4e10946c499e0a64c9eb42858a65ca7bae190300f3d86cf739",
    "step/ipg_ccdf.csv": "cf32338825d368f21d58db65c62d667e7d88450f01a404137c20872292171dbf",
    "mae.csv": "ecfa5d52f6204b7cfc87f44b4dbde295f978ee8b7c9d727726a75ffba349be0d",
}


def test_validate_outputs_match_recorded_digests(tmp_path):
    """The curve run and the step run of one 802.11p `validate`."""
    short_command("validate", "11p", 41, "highway_los_11p_mcs2_350B.csv", tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in VALIDATE_DIGESTS}
    assert got == VALIDATE_DIGESTS


CV2X_VALIDATE_DIGESTS = {
    "curve/prr.csv": "1df7b8a3c0be2ad82b75383f9e26b91228b2a36c6c5b130602f8cd2899bb84db",
    "curve/ipg_ccdf.csv": "9b93b183a244e7ed611cd64366db87554b131368a7054ac946c7d338aa6797d1",
    "step/prr.csv": "9e607d5bc5752817e250c41f14d9939fd86e4db8d27b8e020ec7805fb0754a19",
    "step/ipg_ccdf.csv": "4cfc597bd2d4646ba2393d30d5bd1bad004d771c38e6d3a062dbf3b66a09c80a",
    "mae.csv": "ee2a90d8f2fc3a8c7e36da2750eaf06389e53af9c46702c84397687c5c9cba87",
}


def test_cv2x_validate_outputs_match_recorded_digests(tmp_path):
    """The curve run and the step run of one C-V2X `validate`."""
    short_command("validate", "cv2x", 47, "highway_los_cv2x_mcs7_350B.csv", tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in CV2X_VALIDATE_DIGESTS}
    assert got == CV2X_VALIDATE_DIGESTS


# warmup and mobility step deliberately not aligned to each other, so that
# reception batches straddle the warmup instant and epoch boundaries; at 10
# veh/km a single batch holds many frames of each station
UNALIGNED_CASES = {"11p-curve-unaligned-100": 100.0, "11p-curve-unaligned-10": 10.0}

UNALIGNED_DIGESTS = {
    "11p-curve-unaligned-100": (
        "d50c2caab09dc291a91f74b522d68bb5129adfc74b65687dbfe0b15ede8242b7",
        "9c56b33d059dae6f53883071719fbd07de78d857208fa818f2d2c407212a4ad8"),
    "11p-curve-unaligned-10": (
        "0cf0120bfbf9bc2c5c3bbaeca3b7a6589ce13f7a94259dbd0c09dae2e79e156d",
        "4ae651a462d60a584a4de6d3d7e897c6e2c95bc8c11aa0fdaecacf22490d8f3e"),
}


@pytest.mark.parametrize("name", sorted(UNALIGNED_CASES))
def test_unaligned_warmup_and_epochs_match_recorded_digests(name, tmp_path):
    sets = {
        "run.technology": "11p",
        "run.seed": 37,
        "run.sim_duration_s": 1.5,
        "run.warmup_s": 0.37,
        "run.mobility_step_ms": 50,
        "reception.mode": "curve",
        "reception.curve_file": curve_path("highway_los_11p_mcs2_350B.csv"),
        "road.placement": "fixed_count",
        "road.density_vpk": UNALIGNED_CASES[name],
    }
    argv = ["simulate", "--out", str(tmp_path)]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 0
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("prr.csv", "ipg_ccdf.csv"))
    assert got == UNALIGNED_DIGESTS[name]


FIT_ALPHA_DIGESTS = {
    "highway_los": "d565c024a9f9b475b0cf21f196011a924a86707271245713db24cd0891f8afdb",
    "crossing_nlos": "54d546c7edce187ef706246af89c3ca78efe8c55312eed534c873e237536d607",
}


@pytest.mark.parametrize("scenario", sorted(FIT_ALPHA_DIGESTS))
def test_fit_alpha_model_file_matches_recorded_digest(scenario, tmp_path):
    out = tmp_path / f"{scenario}.model.ini"
    assert main(["fit-alpha", "--curves", CURVE_DIR, "--scenario", scenario,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIT_ALPHA_DIGESTS[scenario]


DERIVE_THRESHOLD_DIGESTS = {
    ("--tech", "11p", "--mcs", "4"):
        "dd52ff8494b762cde0ea64924d858903c0e5f714643052771dddb86560425d7e",
    ("--tech", "cv2x", "--payload", "550"):
        "efcb9f410f6720c73ace7a3497c95019cac661d05d57d6714e830f753b1233ab",
}


@pytest.mark.parametrize("args", sorted(DERIVE_THRESHOLD_DIGESTS))
def test_derive_threshold_report_matches_recorded_digest(args, tmp_path, capsys):
    """The threshold report under the fitted highway model."""
    model = tmp_path / "highway_los.model.ini"
    assert main(["fit-alpha", "--curves", CURVE_DIR, "--scenario", "highway_los",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["derive-threshold", "--model", str(model), *args]) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == DERIVE_THRESHOLD_DIGESTS[args]


def test_generate_bundles_rewrites_the_shipped_curves(tmp_path):
    written = sorted(os.path.basename(p) for p in generate_bundles(str(tmp_path)))
    assert written == sorted(os.listdir(CURVE_DIR)) and len(written) == 20
    for name in written:
        assert (tmp_path / name).read_bytes() == open(curve_path(name), "rb").read(), name
