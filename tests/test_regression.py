"""Pinned numbers of the extraction pipeline.

Golden transfer matrices for every config in ``configs/`` and for the
strong-core sweep base (p = 4, lambda = 1, l+nu = 1/2, tol 1e-8) at
three k, each checked to ``tol * max(1, |a|)``: the scale of ``verify``'s
global error, equal to ``tol`` except for ``degenerate_barrier``
(|a| ~ 4150), whose golden comes from a tol-1e-7 extraction.  The
``inverse_power`` golden comes from a tol-1e-11 extraction, the
``strong_core_p12`` golden from a tol-1e-12 one and the
``hankel_inverse_power`` golden from a tol-1e-7 one; the
``isp_theta005`` and ``isp_theta1_loose`` goldens are the closed form
``isp_exact``.  The quartic
inner-leg step count pins the step control and both matching-radius
choices (the leg runs from ``choose_r_min`` to ``choose_r_max_start``):
a change to the error norm, the step size policy, the near-origin basis
or its estimate, or the far-field truncation estimate moves it.
"""

from pathlib import Path

import pytest

from singscat import ProblemConfig, connect, integrate, transfer_matrix, validate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CORE_BASE = dict(p=4.0, lam=1.0, l_plus_nu=0.5, tol=1e-8)

GOLDEN = {
    "isp_theta05": (complex(1.0169661160881733, 0.1046213367035751),
                    complex(0.2114064853773448, -0.02174863916295741)),
    "isp_theta1": (complex(0.9251994014025791, 0.3819384822759287),
                   complex(0.03998149130924605, -0.01650505836239541)),
    "isp_theta2": (complex(0.054828237706817884, 0.998497547170038),
                   complex(0.00010238858997017874, -0.001864636988969631)),
    "isp_theta005": (complex(1.9259047346801692, 0.011260116743291568),
                     complex(1.6459475171973292, -0.009623301123485042)),
    "isp_theta1_loose": (complex(0.9251994013987346, 0.3819384822848884),
                         complex(0.03998149130973594, -0.016505058355248396)),
    "quartic": (complex(0.24227633134768034, -1.0053432828647093),
                complex(0.18629672183515994, -0.1862967218313637)),
    "degenerate_barrier": (complex(2629.9130440733666, 3213.489481110444),
                           complex(40.027237057183186, 4152.270955138678)),
    "gaussian_barrier": (complex(-1.1627159214950944, -1.081569553917947),
                         complex(-0.9148369756226604, -0.8275109196221762)),
    "inverse_power": (complex(-0.48288575720924753, -0.9638331227881469),
                      complex(0.37521763158067456, -0.14616659005906787)),
    "strong_core_p12": (complex(0.8766640457893409, -0.9757327318283102),
                        complex(-0.4122433139075605, -0.7420577223365988)),
    "hankel_inverse_power": (complex(0.41856469005479063, -0.9129445290301588),
                             complex(0.08446310733649134, 0.0391165128863554)),
    "core_k0.7": (complex(0.44041658985856624, -0.9708573711719812),
                  complex(0.26127648912531615, -0.26127648945406573)),
    "core_k1.5": (complex(-0.060680209084130125, -1.0124367225273851),
                  complex(0.1198127806301033, -0.11981278069073548)),
    "core_k2.3": (complex(-0.46636959369283554, -0.8899906792588773),
                  complex(0.06922429852047186, -0.06922429847465615)),
}
QUARTIC_INNER_STEPS = 238


def _config(name: str):
    if name.startswith("core_k"):
        return validate(ProblemConfig(k=float(name[len("core_k"):]), **CORE_BASE))
    return validate(ProblemConfig.from_json(str(CONFIGS / f"{name}.json")))


@pytest.fixture(scope="module")
def extract():
    """name -> (config, transfer matrix, step stats of the inner leg)."""
    cache = {}

    def get(name):
        if name not in cache:
            legs = []

            def spy(*args, **kwargs):
                traj = integrate.propagate(*args, **kwargs)
                legs.append(traj.step_stats)
                return traj

            cfg = _config(name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(connect, "propagate", spy)
                m = transfer_matrix(cfg)
            cache[name] = (cfg, m, legs[0])
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_transfer_matrix(extract, name):
    cfg, m, _ = extract(name)
    a, b = GOLDEN[name]
    scale = cfg.tol * max(1.0, abs(a))
    assert abs(m.a - a) <= scale
    assert abs(m.b - b) <= scale


def test_quartic_inner_leg_step_count(extract):
    _, _, inner = extract("quartic")
    assert abs(inner.n_steps - QUARTIC_INNER_STEPS) <= 0.01 * QUARTIC_INNER_STEPS
