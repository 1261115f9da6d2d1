"""Bit pins of the elastic propagator (Eq. 3) in 2-D and 3-D.

Each run builds the propagator through ``make_propagator("elastic", ...)``,
steps it with a point source, then steps it again while injecting a line
of receivers with :meth:`~repro.propagators.base.Propagator.inject_pressure`
before each step (the RTM backward phase). The sha256 of every field, of
the observable and of every C-PML memory variable must equal the pinned
value: these were recorded from the two dimension-specific classes the
one dimension-generic class replaced, so any change to the arithmetic
order of the update shows here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.model import layered_model, random_media_model
from repro.propagators import make_propagator

#: (shape, boundary width, source steps, receiver steps) per dimension
RUNS = {2: ((64, 52), 10, 40, 30), 3: ((52, 28, 26), 8, 14, 10)}


def _model(ndim: int, kind: str):
    shape = RUNS[ndim][0]
    if kind == "layered":
        return layered_model(
            shape, interfaces=(150.0,), velocities=(1800.0, 2600.0), vs_ratio=0.5
        )
    return random_media_model(
        shape, background_vp=2200.0, correlation_cells=3, seed=5, vs_ratio=0.5
    )


def _digests(ndim: int, order: int, kind: str) -> dict[str, str]:
    """The first 16 hex digits of the sha256 of each array after the run,
    keyed by field name, ``snapshot`` and ``psi:<memory variable>``."""
    shape, width, n_src, n_rec = RUNS[ndim]
    p = make_propagator(
        "elastic", _model(ndim, kind), space_order=order, boundary_width=width,
        check_health_every=0,
    )
    source = (width + 3,) + tuple(n // 2 for n in shape[1:])
    for n in range(n_src):
        p.step([(source, float(np.sin(0.3 * n)) * 40.0)])
    lateral = np.arange(width, shape[1] - width, 3)
    receivers = np.zeros((lateral.size, ndim), dtype=np.int64)
    receivers[:, 0] = width + 1
    receivers[:, 1] = lateral
    if ndim == 3:
        receivers[:, 2] = shape[2] // 2 - 1
    for n in range(n_rec):
        amplitudes = np.cos(0.2 * n + 0.1 * lateral).astype(np.float32)
        p.inject_pressure(receivers, amplitudes, scale=np.float32(0.5))
        p.step()

    def sha(a: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]

    out = {name: sha(a) for name, a in p.fields.items()}
    out["snapshot"] = sha(p.snapshot_field())
    for name, a in zip(p.cpml.memory_names(), p.cpml.memory_arrays()):
        out[f"psi:{name}"] = sha(a)
    return out


PINNED: dict[tuple[int, int, str], dict[str, str]] = {
    (2, 4, "layered"): {
        "vx": "e3a82e6e799e2a41",
        "vz": "07f1b493545372f3",
        "sxx": "d31b27689d6851ad",
        "szz": "445ef8b046f0adff",
        "sxz": "06b14874f6e64dcc",
        "snapshot": "aaab2091ebeed1da",
        "psi:dsxx_dx": "d9a7556129e92e57",
        "psi:dsxz_dz": "f068e756928adac8",
        "psi:dsxz_dx": "3d524f4a51db8321",
        "psi:dszz_dz": "787362bd803276b2",
        "psi:dvx_dx": "0c425fb383ba9a63",
        "psi:dvz_dz": "76297ab891fe5983",
        "psi:dvx_dz": "80deea8699577b86",
        "psi:dvz_dx": "3a64f4f54c3b9cdd",
    },
    (2, 4, "random-media"): {
        "vx": "a3ee0ee261a8e078",
        "vz": "a4dc8f20b8158ce8",
        "sxx": "6af7b24eb9ceefd9",
        "szz": "a2e8a8e7cecd9e66",
        "sxz": "c75d1fa3dea77193",
        "snapshot": "89d0b84e9159e6f6",
        "psi:dsxx_dx": "dd85fe50df031612",
        "psi:dsxz_dz": "4e4b8cba7b285c1c",
        "psi:dsxz_dx": "4ac78d446d17ed97",
        "psi:dszz_dz": "8e1671927acc2492",
        "psi:dvx_dx": "0611b0e2fb3eeddd",
        "psi:dvz_dz": "f2aa39944fc27cb1",
        "psi:dvx_dz": "d1a368fab47bee24",
        "psi:dvz_dx": "ac184f275abffd75",
    },
    (2, 8, "layered"): {
        "vx": "33be235b8b78f918",
        "vz": "f1f40fcc04285f32",
        "sxx": "26be9341ac208592",
        "szz": "2b949132cae38fcf",
        "sxz": "a80a18d753c3fb90",
        "snapshot": "68588c9b49a02c15",
        "psi:dsxx_dx": "2d4d40e1a3c0520b",
        "psi:dsxz_dz": "5e2f2cd5ade7623a",
        "psi:dsxz_dx": "56dfa676eb6a692c",
        "psi:dszz_dz": "d9b13e1d0afeb4dc",
        "psi:dvx_dx": "a5c98b1c703fb0aa",
        "psi:dvz_dz": "44ae484cd61d18ab",
        "psi:dvx_dz": "7f62384b475ac97a",
        "psi:dvz_dx": "074f9636617272a0",
    },
    (2, 8, "random-media"): {
        "vx": "b9c7f227ea8418ab",
        "vz": "736b8c851263359b",
        "sxx": "c6117bcebc6a286b",
        "szz": "4681cc288f82f7a1",
        "sxz": "1fe987854964b51d",
        "snapshot": "f396ddd4f1009f31",
        "psi:dsxx_dx": "c81abfe28bb06b51",
        "psi:dsxz_dz": "3b62f420f23d26a1",
        "psi:dsxz_dx": "2865123b3f9b5072",
        "psi:dszz_dz": "36435b3634046b95",
        "psi:dvx_dx": "2442272587293bd3",
        "psi:dvz_dz": "3e44dad1dfdf2224",
        "psi:dvx_dz": "819451c010f8815c",
        "psi:dvz_dx": "8b5ff2294590d3f2",
    },
    (3, 4, "layered"): {
        "vx": "cae645c7c09cc52c",
        "vy": "68b95c32be75bd92",
        "vz": "0de3773097914945",
        "sxx": "7b3addd0d0a20b2c",
        "syy": "c99a87dd5efd906e",
        "szz": "e6b4d33fac79d447",
        "sxy": "87f43b7959408cde",
        "sxz": "f62bc47e52f43ec8",
        "syz": "ef9867aceab56d3c",
        "snapshot": "0fe474bc04af94c2",
        "psi:dsxx_dx": "0273f195bbb51919",
        "psi:dsxy_dy": "e3ed8e10f82624f2",
        "psi:dsxz_dz": "64015035bf1a1855",
        "psi:dsxy_dx": "9831a9b169753e1e",
        "psi:dsyy_dy": "caf42d63ad828e70",
        "psi:dsyz_dz": "a237c7fad1551dbd",
        "psi:dsxz_dx": "19f6d1d24843124c",
        "psi:dsyz_dy": "d1554fdb2926ce0b",
        "psi:dszz_dz": "bea3ed86ce53ef99",
        "psi:dvx_dx": "e14df0253ff9eaeb",
        "psi:dvy_dy": "3e411f4f2ed46177",
        "psi:dvz_dz": "d51efd43232c455b",
        "psi:dvy_dx": "42cec2348901011d",
        "psi:dvx_dy": "7dc88f8462105a24",
        "psi:dvz_dx": "717e480c1926ab1f",
        "psi:dvx_dz": "3d80ad6fb925e3ff",
        "psi:dvz_dy": "43a090e44096fc3c",
        "psi:dvy_dz": "8264662cd7eab51b",
    },
    (3, 4, "random-media"): {
        "vx": "1f31133ab7d4f0c8",
        "vy": "5e5b78f5e7313794",
        "vz": "1fac1933dbfe955e",
        "sxx": "35e14a5895566e89",
        "syy": "c1ac7c0c83dc058b",
        "szz": "dc5b53faef9f6d11",
        "sxy": "ae9726eb352de6eb",
        "sxz": "1fba0178796169f4",
        "syz": "a76b0f5857a5c1af",
        "snapshot": "6f8849a783e415ea",
        "psi:dsxx_dx": "588028ad9ec1e0f6",
        "psi:dsxy_dy": "6b051ce4140a6c10",
        "psi:dsxz_dz": "5932f60d6c274028",
        "psi:dsxy_dx": "e4b4e55f5537d213",
        "psi:dsyy_dy": "cd425595e79be640",
        "psi:dsyz_dz": "7dc989dbaa6f5b41",
        "psi:dsxz_dx": "aa80669d28494828",
        "psi:dsyz_dy": "864e57769160827a",
        "psi:dszz_dz": "1d5545583acb05c2",
        "psi:dvx_dx": "4c4abddcf5926362",
        "psi:dvy_dy": "df9f5cb71ece70de",
        "psi:dvz_dz": "a504ce615f941ecc",
        "psi:dvy_dx": "2a468a78a28e6b2c",
        "psi:dvx_dy": "bc3d993b9adb0378",
        "psi:dvz_dx": "8404fd5085cec6b1",
        "psi:dvx_dz": "a30b4990126fcd09",
        "psi:dvz_dy": "9baa352400b074f7",
        "psi:dvy_dz": "fe426433f4c9b2ee",
    },
    (3, 8, "layered"): {
        "vx": "7d1b47f71f1f4a08",
        "vy": "816167119629beba",
        "vz": "ae66ffd4c1f7f5b9",
        "sxx": "a62d208392721c15",
        "syy": "62ad59da12c5f4d0",
        "szz": "c00b9f531e7ce022",
        "sxy": "f07f5e49d04453c5",
        "sxz": "f3909cc1337cc119",
        "syz": "c16ad7dfbaf801f4",
        "snapshot": "6575f68bb5ba730a",
        "psi:dsxx_dx": "eb3f88dcf558499c",
        "psi:dsxy_dy": "91097c54326b5727",
        "psi:dsxz_dz": "c086973d34c9b9f7",
        "psi:dsxy_dx": "17f937ccca2b6c82",
        "psi:dsyy_dy": "df96e8cc0cd98bd2",
        "psi:dsyz_dz": "353901c9714447c8",
        "psi:dsxz_dx": "2efd36fa1c47e698",
        "psi:dsyz_dy": "eb7a702d6da3fb99",
        "psi:dszz_dz": "8b9c4e77adf224f6",
        "psi:dvx_dx": "858ab4d83b2ae71b",
        "psi:dvy_dy": "e3cc95c9de868aec",
        "psi:dvz_dz": "4f2c679cee1fddaf",
        "psi:dvy_dx": "f044ce0462b3b8b9",
        "psi:dvx_dy": "33281db3f438cdcc",
        "psi:dvz_dx": "6a06d2d132ac7332",
        "psi:dvx_dz": "1844a8bddfdc6d80",
        "psi:dvz_dy": "7ff6cbfd8564a674",
        "psi:dvy_dz": "dc1a0e6cb34a0013",
    },
    (3, 8, "random-media"): {
        "vx": "5411595dfca46851",
        "vy": "6faec6b5c7a496bb",
        "vz": "b94cc02afa2e83ff",
        "sxx": "ce01926dadd7796d",
        "syy": "2c8afa440565cfad",
        "szz": "02a1a1b59e2d9e69",
        "sxy": "bfdfebefeb714254",
        "sxz": "65b82f0a54882293",
        "syz": "27948856cd8915cd",
        "snapshot": "b8bfcbcb3cdd88ab",
        "psi:dsxx_dx": "e98f76229afc92d9",
        "psi:dsxy_dy": "a232e9501d187cdd",
        "psi:dsxz_dz": "b75d3fa58fe14f4f",
        "psi:dsxy_dx": "6e27ffae7cb51191",
        "psi:dsyy_dy": "abf2f98011939d86",
        "psi:dsyz_dz": "d54f6cec0af97e14",
        "psi:dsxz_dx": "649aaf87ccb70bfc",
        "psi:dsyz_dy": "8a7edd617705e47f",
        "psi:dszz_dz": "d7132953f21b560f",
        "psi:dvx_dx": "543cae76c8d8b7e7",
        "psi:dvy_dy": "db79fba73048b275",
        "psi:dvz_dz": "bb80c894d5867bf3",
        "psi:dvy_dx": "e6a40116ecfd115e",
        "psi:dvx_dy": "c230d3bfe1dee840",
        "psi:dvz_dx": "6db892420419310e",
        "psi:dvx_dz": "a498d61687a7756b",
        "psi:dvz_dy": "debdf252c00afead",
        "psi:dvy_dz": "a3312a9bb59ace48",
    },
}


@pytest.mark.parametrize("ndim,order,kind", sorted(PINNED))
def test_elastic_bits_are_pinned(ndim, order, kind):
    assert _digests(ndim, order, kind) == PINNED[ndim, order, kind]
