"""Parity pins for the serving plane.

Three contracts, all asserted on the engine and on the per-worker oracle:

* **Golden Poisson fixture** — a small open-loop Poisson-arrival FDA run has
  its sync count, byte ledger, virtual clock, and p50/p95/p99 latency digits
  frozen here.  Any change to arrival draws, queue ordering, staleness
  weighting, upload charging, or the timeline tie-break shifts at least one
  pinned digit and fails loudly.
* **Open-loop trajectories** — that run, a saturated ``drop`` queue and a
  ``bsp`` run have their whole trajectory frozen in ``OPEN_GOLDEN`` from the
  last coordinator that computed each local step at its own event: event
  stream, estimate digits, per-worker step counts, clock and byte ledgers and
  a parameter digest, under every public driver (each settles the produced
  steps at different moments; none may show).
* **Closed-loop bit-exactness** — ``ServingConfig(arrival="closed")`` (no
  exogenous arrivals, unbounded queue, instant service) is the paper's
  Section 3.3 asynchronous coordinator.  Its trajectory was recorded from the
  stand-alone ``AsynchronousFDATrainer`` at the last commit that had one (it
  ran on the timeline's heap while serving ran on a second one) and is frozen
  in ``CLOSED_GOLDEN``: event stream, estimate digits, clock and byte
  ledgers, and a digest of every worker's parameters, with and without
  per-step jitter (which pins the timeline's RNG draw order).
"""

import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest

from helpers.per_worker import SIDES, on_side
from helpers.serving import RecordingTrainer, drive, serve_next
from repro.core.monitor import make_monitor
from repro.core.timeline import StragglerProfile
from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.participation import Participation
from repro.distributed.worker import Worker
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.nn.architectures import mlp
from repro.optim.adam import Adam
from repro.serving import ServedFDATrainer, ServingConfig, ServingReport

pytestmark = pytest.mark.serving

def build_cluster(side="batched", **cluster_kwargs):
    rng = np.random.default_rng(7)
    workers = []
    for worker_id in range(4):
        x = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, size=40)
        workers.append(
            Worker(
                worker_id,
                mlp(6, 3, hidden_units=(10,), seed=11),
                Dataset(x, y, 3),
                Adam(0.01),
                batch_size=8,
                seed=worker_id,
            )
        )
    return on_side(side, SimulatedCluster(workers, **cluster_kwargs))


#: Frozen digits of the golden Poisson run (150 updates, K=4, star x fl,
#: rate 0.5/worker, queue 64/drop, staleness-weighted, 50 ms service,
#: linear monitor, theta = 0.05, arrival seed 2026).
GOLDEN = {
    "sync_count": 6,
    "total_bytes": 22176,
    "updates_served": 150,
    "updates_offered": 150,
    "virtual_seconds": 70.34103951051148,
    "p50": 0.04999999999999982,
    "p95": 0.08595376964713072,
    "p99": 0.12407261982686359,
}


#: The open-loop cells whose whole trajectory is frozen in ``OPEN_GOLDEN``:
#: the golden Poisson run above, a 4x-overloaded queue of four that drops most
#: of what is offered (a lost update's local step still happened), and the
#: lockstep ``"bsp"`` baseline.  ``(updates served, config)``.
OPEN_CELLS = {
    "poisson": (
        150,
        ServingConfig(
            arrival="poisson",
            arrival_rate=0.5,
            queue_capacity=64,
            queue_policy="drop",
            staleness_rule="staleness-weighted",
            service_seconds=0.05,
            arrival_seed=2026,
        ),
    ),
    "saturated-drop": (
        80,
        ServingConfig(
            arrival="poisson",
            arrival_rate=2.5,
            queue_capacity=4,
            queue_policy="drop",
            staleness_rule="staleness-weighted",
            service_seconds=0.4,
            arrival_seed=2026,
        ),
    ),
    "bsp": (
        60,
        ServingConfig(
            arrival="poisson",
            arrival_rate=0.5,
            queue_capacity=64,
            queue_policy="drop",
            service_seconds=0.05,
            protocol="bsp",
            arrival_seed=2026,
        ),
    ),
}


def open_trainer(side, cell):
    cluster = build_cluster(side, topology="star", network="fl")
    monitor = make_monitor("linear", cluster.model_dimension, seed=3)
    return RecordingTrainer(cluster, monitor, 0.05, OPEN_CELLS[cell][1])


def run_golden(side):
    trainer = open_trainer(side, "poisson")
    trainer.serve_updates(150)
    return trainer


#: The open-loop trajectories, recorded at the last commit whose coordinator
#: computed every produced update's local step on the spot (one
#: ``engine.step_worker`` call per arrival): events are ``(time, worker_id,
#: step_index, synchronized)``, estimates the repr digits of the non-NaN
#: variance estimates in event order (none under ``"bsp"``).
OPEN_GOLDEN = {
    "poisson": {
        "events": [
            (0.13571804211897215, 3, 1, False), (0.6688390146944497, 1, 1, False),
            (0.9541496030278007, 0, 1, False), (1.006839643108709, 0, 2, False),
            (1.1403021289483937, 2, 1, False), (1.3868338393776227, 1, 2, False),
            (1.8840657143815338, 1, 3, False), (2.0414743358956695, 2, 2, False),
            (3.3099128116497707, 2, 3, False), (3.9889750402869057, 1, 4, False),
            (4.91489392640626, 0, 3, False), (6.021388451117065, 0, 4, True),
            (7.228669098024103, 2, 4, False), (8.034256805241512, 1, 5, False),
            (9.203004920950333, 3, 2, False), (9.621344634871102, 2, 5, False),
            (9.873292417133609, 0, 5, False), (10.935206957862409, 3, 3, False),
            (11.254739610866928, 1, 6, False), (11.328088509097316, 1, 7, False),
            (11.99029253993766, 2, 6, False), (12.299818734244736, 3, 4, False),
            (12.472350167951197, 2, 7, False), (12.933871767093834, 0, 6, False),
            (12.983871767093834, 3, 5, False), (13.033871767093835, 1, 8, False),
            (13.083871767093836, 1, 9, False), (13.296130990060803, 3, 6, False),
            (13.804865488258022, 2, 8, False), (14.703632151711982, 2, 9, False),
            (14.753632151711983, 1, 10, False), (14.93039714212506, 1, 11, False),
            (15.550810679141733, 2, 10, True), (15.89873726684538, 1, 12, False),
            (16.79113841248952, 0, 7, False), (17.03201408692647, 0, 8, False),
            (18.269912376227122, 0, 9, False), (18.319912376227123, 2, 11, False),
            (18.726501273736776, 0, 10, False), (19.251928112671383, 0, 11, False),
            (20.27695069972888, 2, 12, False), (20.609744962522363, 1, 13, False),
            (21.4641617368523, 1, 14, False), (21.91372351135991, 2, 13, False),
            (21.96372351135991, 2, 14, False), (22.108182479443478, 3, 7, False),
            (22.27345199302126, 0, 12, False), (22.86301343125164, 1, 15, False),
            (23.67042838310643, 2, 15, False), (23.752888826503078, 3, 8, False),
            (24.126894457114513, 3, 9, False), (25.371509528759397, 2, 16, False),
            (25.421509528759398, 2, 17, False), (25.471509528759398, 3, 10, False),
            (25.5215095287594, 3, 11, False), (26.161607624487115, 1, 16, False),
            (27.0656960216512, 2, 18, False), (27.520441124427116, 3, 12, True),
            (27.570441124427116, 0, 13, False), (27.888504941719564, 0, 14, False),
            (28.478873758430595, 1, 17, False), (28.715538889697413, 3, 13, False),
            (28.789867857837717, 3, 14, False), (28.882353002147056, 1, 18, False),
            (28.968450895291273, 2, 19, False), (29.145524600145198, 1, 19, False),
            (29.561059457217446, 2, 20, False), (29.611059457217447, 0, 15, False),
            (29.661059457217448, 2, 21, False), (29.932926616019245, 2, 22, False),
            (29.982926616019245, 3, 15, False), (30.047193666258135, 1, 20, False),
            (31.07407876066971, 2, 23, False), (31.12407876066971, 3, 16, False),
            (34.23437313544798, 3, 17, False), (34.81929785601335, 0, 16, False),
            (35.08243316915898, 1, 21, False), (35.47665452606688, 0, 17, False),
            (36.31045815573033, 3, 18, False), (36.45140702986179, 2, 24, False),
            (36.661088571986085, 0, 18, False), (36.73530456630056, 1, 22, False),
            (36.78530456630056, 1, 23, False), (36.98803079301389, 1, 24, False),
            (37.39138501773655, 2, 25, True), (37.44138501773655, 3, 19, False),
            (37.51352154878465, 1, 25, False), (38.02531330468197, 3, 20, False),
            (39.048161616896785, 2, 26, False), (39.77262085803429, 0, 19, False),
            (40.277888381889, 3, 21, False), (40.53624037701787, 2, 27, False),
            (40.586240377017866, 2, 28, False), (41.16609011454149, 0, 20, False),
            (41.54724136832956, 3, 22, False), (42.06388085635247, 3, 23, False),
            (42.52497294868061, 3, 24, False), (42.57497294868061, 2, 29, False),
            (42.9191533243668, 0, 21, False), (43.04332685588948, 2, 30, False),
            (43.881751414716405, 2, 31, False), (44.444194711524965, 3, 25, False),
            (44.893897823565446, 1, 26, False), (44.98922786583565, 0, 22, False),
            (45.098034337663876, 0, 23, False), (45.26972862309088, 0, 24, False),
            (45.96879784171426, 1, 27, False), (47.638164685300545, 2, 32, False),
            (48.0378582171431, 0, 25, False), (48.149520826482664, 3, 26, False),
            (48.50771025029164, 0, 26, False), (49.243819237397375, 2, 33, False),
            (49.55411171779504, 0, 27, True), (51.597748872485255, 3, 27, False),
            (51.745868167019076, 1, 28, False), (53.29645703706531, 0, 28, False),
            (53.91341545562381, 2, 34, False), (53.982503459556334, 3, 28, False),
            (54.31868184054313, 0, 29, False), (55.30041359551823, 1, 29, False),
            (56.234974708628606, 3, 29, False), (56.2849747086286, 1, 30, False),
            (57.05566044749507, 0, 30, False), (57.86041957654306, 1, 31, False),
            (58.06484560627949, 3, 30, False), (58.63447762395815, 1, 32, False),
            (59.006913754343024, 0, 31, False), (59.234814113375435, 0, 32, False),
            (60.311205764966765, 0, 33, False), (62.04311879818079, 2, 35, False),
            (62.150875265357584, 2, 36, False), (63.72713630989512, 3, 31, False),
            (63.82369031857572, 3, 32, False), (63.9701177644152, 3, 33, False),
            (64.06062171150165, 0, 34, False), (64.22791502406008, 2, 37, False),
            (64.7451207181501, 0, 35, False), (65.47833505125904, 0, 36, False),
            (65.64730083264563, 3, 34, True), (65.96804996659758, 2, 38, False),
            (66.12300487091666, 1, 33, False), (66.49012421245317, 2, 39, False),
            (66.8698334104507, 3, 35, False), (67.83320452018701, 3, 36, False),
            (68.7923752276287, 3, 37, False), (68.97909828826901, 1, 34, False),
            (69.2484061822382, 1, 35, False), (69.66475422943704, 3, 38, False),
            (69.90146142198995, 1, 36, False), (70.34103951051148, 1, 37, False),
        ],
        "estimates": [
            '0.015212794741066356', '0.01889591474574009', '0.02463315493811443',
            '0.028605761480947664', '0.03430109995569135', '0.04077903519976887',
            '0.04681815697464219', '0.05492921883097548', '0.003869038858822029',
            '0.006546610095219335', '0.007384106723885001', '0.009388162090841905',
            '0.011656786187677492', '0.014230524597785028', '0.017165625847896816',
            '0.01720719066750684', '0.020820823647757735', '0.02331420445962159',
            '0.026628218350115047', '0.030566564549264208', '0.03384465142718757',
            '0.0382186011905775', '0.042113247178135596', '0.04696751184522699',
            '0.05219168822841993', '0.01678641454408417', '0.020491506383861016',
            '0.02196195726847189', '0.025415109512575928', '0.025550993047468686',
            '0.02670035622929525', '0.03101240685619368', '0.035975264010133526',
            '0.03820532803285819', '0.041870606219220084', '0.04362795134608698',
            '0.04941348629261411', '0.05345146231730064', '0.0034221497716368974',
            '0.005277140686649042', '0.005971506411722541', '0.006518597695304154',
            '0.008099690927527796', '0.01052647175023174', '0.012132942129430651',
            '0.014216984065198007', '0.017452983586498876', '0.01974314923882072',
            '0.022751861040073967', '0.023389037369640694', '0.02582152306743156',
            '0.027218043803127024', '0.03027346815553036', '0.03372046311406948',
            '0.03567418559844715', '0.038700236208217415', '0.04214051028195',
            '0.04610564697719163', '0.05013562015440364', '0.0009828612753587345',
            '0.0017459034855850527', '0.0024953715183038765', '0.0037160674858016367',
            '0.004513233203265391', '0.005846992738909821', '0.007965583614629356',
            '0.01069915859160462', '0.012233005452102489', '0.013625316970905266',
            '0.015756087039028265', '0.018346232963527984', '0.021546597296585243',
            '0.02158347636258647', '0.023600625683462134', '0.026494329020468953',
            '0.03024062273015659', '0.030630635736775033', '0.03354636623731574',
            '0.03777936291806436', '0.04129804472942399', '0.046162422887433094',
            '0.04985350317871575', '0.05549170762499419', '0.0010764390015478315',
            '0.0020445874140922653', '0.0029324613888224178', '0.0035726887414981893',
            '0.0052337114702785195', '0.006339923558289407', '0.007787855917752691',
            '0.009303947684472525', '0.011712217131907576', '0.01367162444086135',
            '0.015745314798870317', '0.018492156177447126', '0.021766128749464493',
            '0.022016199310732405', '0.02288507142692614', '0.02602790590583902',
            '0.030007396211499227', '0.03474894014434203', '0.038082649984294795',
            '0.03936269088235733', '0.043109294395999406', '0.04730658393585144',
            '0.052396559661296166',
        ],
        "steps_performed": [36, 37, 39, 38],
        "updates_offered": 150,
        "updates_dropped": 0,
        "virtual_time": 70.34103951051148,
        "total_bytes": 22176,
        "sync_count": 6,
        "latency_p99": 0.12407261982686359,
        "parameters_sha256": '8fbd8d6f6d116ab94200105da9480b3d92d581cb532086320d11f786ecb2d940',
    },
    "saturated-drop": {
        "events": [
            (0.45714381322379444, 3, 1, False), (0.8571438132237945, 1, 1, False),
            (1.2571438132237946, 0, 1, False), (1.6571438132237946, 0, 2, False),
            (2.0571438132237945, 2, 1, False), (2.4571438132237944, 2, 3, False),
            (2.8571438132237943, 0, 3, False), (3.257143813223794, 2, 4, False),
            (3.657143813223794, 3, 2, False), (4.057143813223794, 3, 3, False),
            (4.557170181223794, 3, 4, True), (4.957170181223795, 2, 9, False),
            (5.357170181223795, 0, 7, False), (5.757170181223795, 0, 9, False),
            (6.157170181223796, 2, 12, False), (6.557170181223796, 0, 12, False),
            (6.9571701812237965, 2, 16, False), (7.357170181223797, 2, 18, False),
            (7.757170181223797, 3, 13, False), (8.157170181223798, 2, 23, False),
            (8.557170181223798, 3, 17, False), (8.957170181223798, 0, 16, False),
            (9.357170181223799, 0, 18, False), (9.757170181223799, 2, 26, False),
            (10.1571701812238, 0, 20, False), (10.5571701812238, 0, 21, False),
            (11.0571965492238, 1, 26, True), (11.4571965492238, 2, 32, False),
            (11.8571965492238, 2, 33, False), (12.257196549223801, 3, 27, False),
            (12.657196549223801, 0, 28, False), (13.157222917223802, 1, 29, True),
            (13.557222917223802, 1, 31, False), (13.957222917223802, 0, 32, False),
            (14.357222917223803, 2, 35, False), (14.757222917223803, 3, 31, False),
            (15.157222917223804, 0, 36, False), (15.557222917223804, 3, 36, False),
            (15.957222917223804, 3, 38, False), (16.357222917223805, 2, 43, False),
            (16.757222917223803, 3, 40, False), (17.1572229172238, 2, 46, False),
            (17.657249285223802, 0, 40, True), (18.0572492852238, 3, 43, False),
            (18.4572492852238, 0, 44, False), (18.857249285223798, 3, 46, False),
            (19.257249285223796, 2, 52, False), (19.757275653223797, 1, 42, True),
            (20.157275653223795, 0, 49, False), (20.557275653223794, 3, 51, False),
            (20.957275653223792, 3, 52, False), (21.35727565322379, 0, 55, False),
            (21.75727565322379, 0, 58, False), (22.15727565322379, 0, 60, False),
            (22.557275653223787, 1, 48, False), (22.957275653223785, 1, 49, False),
            (23.357275653223784, 1, 50, False), (23.757275653223783, 1, 53, False),
            (24.15727565322378, 2, 60, False), (24.55727565322378, 3, 60, False),
            (25.05730202122378, 1, 57, True), (25.45730202122378, 2, 62, False),
            (25.857302021223777, 3, 63, False), (26.257302021223776, 2, 64, False),
            (26.657302021223774, 3, 66, False), (27.057302021223773, 2, 67, False),
            (27.45730202122377, 0, 70, False), (27.957328389223772, 1, 64, True),
            (28.35732838922377, 1, 66, False), (28.75732838922377, 0, 73, False),
            (29.157328389223768, 3, 71, False), (29.557328389223766, 2, 71, False),
            (29.957328389223765, 2, 72, False), (30.357328389223763, 1, 69, False),
            (30.757328389223762, 2, 77, False), (31.15732838922376, 3, 78, False),
            (31.55732838922376, 1, 74, False), (32.057354757223756, 2, 81, True),
            (32.457354757223754, 3, 81, False), (32.85735475722375, 1, 79, False),
        ],
        "estimates": [
            '0.015212794741066356', '0.024885305532655836', '0.03091233191481922',
            '0.03814782440603366', '0.04279093046458347', '0.04815150405071118',
            '0.05336780632574789', '0.14076262742108592', '0.24348749051126095',
            '0.008165960984298028', '0.004755495510541638', '0.005690309343114283',
            '0.012862513563981815', '0.02238456348249003', '0.03165887924495094',
            '0.04522752804588883', '0.05118024068857016', '0.15486377867606707',
            '0.03746071054535154', '0.040945412357842666', '0.0555774324885781',
            '0.0814674879500603', '0.026752733819343323', '0.030367226004971343',
            '0.020658534957191457', '0.02423883446232925', '0.021515999538499215',
            '0.034685107415036234', '0.05887271683079376',
        ],
        "steps_performed": [85, 85, 89, 89],
        "updates_offered": 348,
        "updates_dropped": 264,
        "virtual_time": 32.85735475722375,
        "total_bytes": 31936,
        "sync_count": 8,
        "latency_p99": 2.081564273942981,
        "parameters_sha256": '8faff60345288af862c2ea9603e6770a9f79cbd1ce146fba844027a36a38289b',
    },
    "bsp": {
        "events": [
            (0.13573097011897217, 3, 1, False), (0.6688519426944497, 1, 1, False),
            (0.9541625310278007, 0, 1, False), (1.0068525711087088, 0, 2, False),
            (1.2403414249483937, 2, 1, True), (1.3868467673776228, 1, 2, False),
            (1.8840786423815339, 1, 3, False), (2.04148726389567, 2, 2, False),
            (3.3099257396497705, 2, 3, False), (3.9889879682869056, 1, 4, False),
            (4.914906854406261, 0, 3, False), (5.921375011117066, 0, 4, False),
            (7.228682026024103, 2, 4, False), (8.034269733241512, 1, 5, False),
            (9.303044216950333, 3, 2, True), (9.621357562871102, 2, 5, False),
            (9.873305345133609, 0, 5, False), (10.93521988586241, 3, 3, False),
            (11.354778906866928, 1, 6, True), (11.404778906866929, 1, 7, False),
            (11.99030546793766, 2, 6, False), (12.299831662244737, 3, 4, False),
            (12.472363095951197, 2, 7, False), (13.033911063093834, 0, 6, True),
            (13.083911063093835, 3, 5, False), (13.133911063093835, 1, 8, False),
            (13.183911063093836, 1, 9, False), (13.296143918060803, 3, 6, False),
            (13.804878416258022, 2, 8, False), (14.703645079711983, 2, 9, False),
            (14.753645079711983, 1, 10, False), (14.93041007012506, 1, 11, False),
            (15.450797239141734, 2, 10, False), (15.89875019484538, 1, 12, False),
            (16.891177708489522, 0, 7, True), (17.03202701492647, 0, 8, False),
            (18.269925304227122, 0, 9, False), (18.319925304227123, 2, 11, False),
            (18.726514201736776, 0, 10, False), (19.251941040671383, 0, 11, False),
            (20.27696362772888, 2, 12, False), (20.609757890522364, 1, 13, False),
            (21.4641746648523, 1, 14, False), (21.91373643935991, 2, 13, False),
            (21.96373643935991, 2, 14, False), (22.20822177544348, 3, 7, True),
            (22.27346492102126, 0, 12, False), (22.86302635925164, 1, 15, False),
            (23.67044131110643, 2, 15, False), (23.85292812250308, 3, 8, True),
            (24.126907385114514, 3, 9, False), (25.371522456759397, 2, 16, False),
            (25.421522456759398, 2, 17, False), (25.4715224567594, 3, 10, False),
            (25.5215224567594, 3, 11, False), (26.161620552487115, 1, 16, False),
            (27.0657089496512, 2, 18, False), (27.420427684427114, 3, 12, False),
            (27.570454052427117, 0, 13, True), (27.888517869719564, 0, 14, False),
        ],
        "estimates": [],
        "steps_performed": [14, 16, 18, 12],
        "updates_offered": 60,
        "updates_dropped": 0,
        "virtual_time": 27.888517869719564,
        "total_bytes": 75808,
        "sync_count": 8,
        "latency_p99": 0.2083010995491516,
        "parameters_sha256": '36a798893fffb9af36adb278c2cf90603f72ecaacb0a47f0092aedd618e983e2',
    },
}


#: Frozen closed-loop runs (60 updates, K=4, star x fl, one 3x straggler,
#: linear monitor, theta = 0.05, timeline seed 5): ``"stragglers"`` is
#: jitter-free, ``"jittered"`` adds ``jitter=0.2``.  Events are
#: ``(time, worker_id, step_index, synchronized)``; estimates are the repr
#: digits of the non-NaN variance estimates in event order.
CLOSED_GOLDEN = {
    "stragglers": {
        "jitter": 0.0,
        "events": [
            (1.0, 0, 1, False),
            (1.0, 1, 1, False),
            (1.0, 3, 1, False),
            (2.0500002559999997, 0, 2, False),
            (2.0500002559999997, 1, 2, False),
            (2.0500002559999997, 3, 2, False),
            (3.0, 2, 1, False),
            (3.100000512, 0, 3, False),
            (3.100000512, 1, 3, False),
            (3.100000512, 3, 3, False),
            (4.150000768, 0, 4, False),
            (4.250027136, 1, 4, True),
            (4.250027136, 3, 4, False),
            (5.300027392, 0, 5, False),
            (5.300027392, 1, 5, False),
            (5.300027392, 3, 5, False),
            (6.1500266240000006, 2, 2, False),
            (6.350027647999999, 0, 6, False),
            (6.350027647999999, 1, 6, False),
            (6.350027647999999, 3, 6, False),
            (7.400027903999999, 0, 7, False),
            (7.400027903999999, 1, 7, False),
            (7.400027903999999, 3, 7, False),
            (8.450028159999999, 0, 8, False),
            (8.450028159999999, 1, 8, False),
            (8.450028159999999, 3, 8, False),
            (9.20002688, 2, 3, False),
            (9.500028416, 0, 9, False),
            (9.500028416, 1, 9, False),
            (9.500028416, 3, 9, False),
            (10.550028672, 0, 10, False),
            (10.550028672, 1, 10, False),
            (10.550028672, 3, 10, False),
            (11.600028928, 0, 11, False),
            (11.700055296, 1, 11, True),
            (11.700055296, 3, 11, False),
            (12.350053504, 2, 4, False),
            (12.750055552000001, 0, 12, False),
            (12.750055552000001, 1, 12, False),
            (12.750055552000001, 3, 12, False),
            (13.800055808000002, 0, 13, False),
            (13.800055808000002, 1, 13, False),
            (13.800055808000002, 3, 13, False),
            (14.850056064000002, 0, 14, False),
            (14.850056064000002, 1, 14, False),
            (14.850056064000002, 3, 14, False),
            (15.40005376, 2, 5, False),
            (15.900056320000003, 0, 15, False),
            (15.900056320000003, 1, 15, False),
            (15.900056320000003, 3, 15, False),
            (16.950056576, 0, 16, False),
            (16.950056576, 1, 16, False),
            (16.950056576, 3, 16, False),
            (18.000056832000002, 0, 17, False),
            (18.000056832000002, 1, 17, False),
            (18.000056832000002, 3, 17, False),
            (18.450054016000003, 2, 6, False),
            (19.050057088000003, 0, 18, False),
            (19.050057088000003, 1, 18, False),
            (19.050057088000003, 3, 18, False),
        ],
        "estimates": [
            "0.02354110807779375", "0.02957039901882574", "0.035313272758803034",
            "0.040683274098058275", "0.048794023118653454", "0.055283434321182004",
            "0.0034880580933541235", "0.004707117524367926", "0.005385320331584332",
            "0.007452234279913057", "0.009456787763194273", "0.010969292046986379",
            "0.013981774172581157", "0.016518670502726096", "0.01897793877434885",
            "0.022850270764694345", "0.022982766075041215", "0.025837782912448697",
            "0.02871314418706956", "0.03280057270524074", "0.03631769649508516",
            "0.039805444455575295", "0.044732541519862834", "0.04858033705023072",
            "0.05276884657750604", "0.0015194458785694075", "0.002601181089066539",
            "0.0032617272603801825", "0.003884569073100914", "0.0055169522448134875",
            "0.00670492479255842", "0.0077905775269336095", "0.010185374917762462",
            "0.011131368563298768", "0.012925244048522157", "0.014553865231850352",
            "0.01735566412756031", "0.01972864168827875", "0.022032310816963628",
            "0.025250646020132852", "0.028145822928477296", "0.031197760575815574",
            "0.03459863419025863", "0.035584439163856924", "0.038689348164537236",
            "0.04206958188403138", "0.045395342432328414",
        ],
        "virtual_time": 19.050057088000003,
        "compute_seconds": 18.850004352000003,
        "comm_seconds": 3.2000680960000016,
        "total_bytes": 7552,
        "sync_count": 2,
        "parameters_sha256": "3452eb96dd5e796741910844a051e140e106a7c8d2a973c3d8888220c9aed83d",
    },
    "jittered": {
        "jitter": 0.2,
        "events": [
            (0.7673043127544276, 0, 1, False),
            (0.951541170227946, 1, 1, False),
            (1.2550925394739045, 3, 1, False),
            (1.8394883286935277, 0, 2, False),
            (1.896901375047226, 1, 2, False),
            (2.1598344013520334, 3, 2, False),
            (3.0510314226704187, 0, 3, False),
            (3.263177246634166, 2, 1, False),
            (3.2659039014205993, 3, 3, False),
            (3.333642934263948, 1, 3, False),
            (3.882433525554488, 0, 4, False),
            (4.525080520467804, 1, 4, True),
            (4.739670615605513, 0, 5, False),
            (4.793063547364727, 3, 4, False),
            (5.5584808604903815, 1, 5, False),
            (5.58210555529162, 0, 6, False),
            (5.724804184453761, 3, 5, False),
            (5.889983667874125, 2, 2, False),
            (6.499152307906118, 0, 7, False),
            (6.515491695992029, 1, 6, False),
            (6.8918370282687915, 3, 6, False),
            (7.437949710018514, 0, 8, False),
            (7.650869140015537, 1, 7, False),
            (8.12237622236811, 3, 7, False),
            (8.2078775323997, 0, 9, False),
            (8.650819302995002, 1, 8, False),
            (8.902370129981763, 2, 3, False),
            (8.994265855066024, 3, 8, False),
            (9.223839535361225, 0, 10, False),
            (9.473504611019964, 1, 9, False),
            (10.036717597077148, 3, 9, False),
            (10.214787651247763, 0, 11, False),
            (10.334425331156723, 1, 10, False),
            (11.010537821129269, 3, 10, False),
            (11.168726024580593, 0, 12, True),
            (11.247036613566541, 1, 11, False),
            (12.01974578063069, 0, 13, False),
            (12.064836711414928, 2, 4, False),
            (12.206547480035162, 3, 11, False),
            (12.560756197314804, 1, 12, False),
            (13.223842241645151, 0, 14, False),
            (13.312481831651716, 3, 12, False),
            (13.412999773388705, 1, 13, False),
            (14.126675406158501, 2, 5, False),
            (14.13487302049882, 1, 14, False),
            (14.280475845518298, 0, 15, False),
            (14.37124667217574, 3, 13, False),
            (15.135001808895366, 1, 15, False),
            (15.210799102977031, 3, 14, False),
            (15.542631512571843, 0, 16, False),
            (16.06348304927193, 3, 15, False),
            (16.344060961221924, 1, 16, False),
            (16.528520975160443, 0, 17, False),
            (16.958757144793733, 3, 16, False),
            (17.039841027512498, 2, 6, False),
            (17.698872893165735, 0, 18, False),
            (17.730149640194888, 1, 17, False),
            (18.635120835239107, 3, 17, False),
            (18.932991567261062, 0, 19, False),
            (18.963248077742705, 1, 18, False),
        ],
        "estimates": [
            "0.02957039901882574", "0.034936043612469145", "0.040683274098058275",
            "0.048794023118653454", "0.055283434321182004", "0.004707117524367926",
            "0.007096787892053522", "0.007558416914231558", "0.009456787763194273",
            "0.012361014380051659", "0.013677669683060356", "0.016518670502726096",
            "0.019902203376736864", "0.022182488250278194", "0.022251013293815902",
            "0.025837782912448697", "0.029621367992746162", "0.03236310979435075",
            "0.03631769649508516", "0.040418182648078685", "0.04376118639627522",
            "0.04858033705023072", "0.053301264928732356", "0.0015505221062687745",
            "0.002581509878743924", "0.0032330774269853976", "0.004069131860248583",
            "0.005636710763288097", "0.006917944056327724", "0.00905634453999141",
            "0.010148146146906463", "0.011287313714816578", "0.014130005336373375",
            "0.016228843902561192", "0.017757592720442215", "0.020446387497014242",
            "0.02380218007555056", "0.025888264528487366", "0.028970804110077554",
            "0.03018534813727389", "0.032666679060395054", "0.03650353913016423",
            "0.03969133621060073", "0.042844987430015385", "0.047093690888775436",
        ],
        "virtual_time": 18.963248077742705,
        "compute_seconds": 18.763195341742705,
        "comm_seconds": 3.2000680960000016,
        "total_bytes": 7552,
        "sync_count": 2,
        "parameters_sha256": "933354d195b61c31234c918dda882767cee76f1777bef639457eb9c22ba0df7b",
    },
}


def run_closed(side, jitter):
    cluster = build_cluster(side, topology="star", network="fl")
    monitor = make_monitor("linear", cluster.model_dimension, seed=3)
    profile = StragglerProfile(
        straggler_fraction=0.25, straggler_factor=3.0, jitter=jitter
    )
    trainer = ServedFDATrainer(
        cluster, monitor, 0.05, ServingConfig(arrival="closed"),
        profile=profile, seed=5,
    )
    return trainer, [serve_next(trainer) for _ in range(60)]


class TestGoldenPoissonFixture:
    @pytest.mark.parametrize("side", SIDES)
    def test_golden_run_digits_are_frozen(self, side):
        report = run_golden(side).report()
        assert report.sync_count == GOLDEN["sync_count"]
        assert report.total_bytes == GOLDEN["total_bytes"]
        assert report.updates_served == GOLDEN["updates_served"]
        assert report.updates_offered == GOLDEN["updates_offered"]
        assert report.virtual_seconds == GOLDEN["virtual_seconds"]
        assert report.latency["p50"] == GOLDEN["p50"]
        assert report.latency["p95"] == GOLDEN["p95"]
        assert report.latency["p99"] == GOLDEN["p99"]

    @pytest.mark.parametrize("driver", ["serve_next", "serve_updates", "serve_for"])
    @pytest.mark.parametrize("cell", list(OPEN_GOLDEN))
    @pytest.mark.parametrize("side", SIDES)
    def test_open_loop_trajectory_is_frozen(self, side, cell, driver):
        """Whichever driver runs the cell — and so wherever it settles the
        produced steps — every record and every final bit is the parent's."""
        golden = OPEN_GOLDEN[cell]
        served = open_trainer(side, cell)
        drive(
            served,
            driver,
            golden["virtual_time"] if driver == "serve_for" else len(golden["events"]),
        )
        records = served.records
        assert [
            (r.time, r.worker_id, r.step_index, r.synchronized) for r in records
        ] == golden["events"]
        assert [
            repr(r.variance_estimate)
            for r in records
            if not math.isnan(r.variance_estimate)
        ] == golden["estimates"]
        # A dropped update's local step happened all the same.
        assert [w.steps_performed for w in served.cluster.workers] == golden["steps_performed"]
        report = served.report()
        assert report.updates_offered == golden["updates_offered"]
        assert report.updates_dropped == golden["updates_dropped"]
        assert served.virtual_time == golden["virtual_time"]
        assert served.cluster.total_bytes == golden["total_bytes"]
        assert served.sync_count == golden["sync_count"]
        assert report.latency["p99"] == golden["latency_p99"]
        assert (
            hashlib.sha256(served.cluster.parameter_matrix.tobytes()).hexdigest()
            == golden["parameters_sha256"]
        )

    def test_the_engine_and_the_per_worker_loop_agree_bit_exactly(self):
        oracle = run_golden("per-worker")
        batched = run_golden("batched")
        np.testing.assert_array_equal(
            oracle.cluster.parameter_matrix, batched.cluster.parameter_matrix
        )
        assert oracle.cluster.total_bytes == batched.cluster.total_bytes
        assert oracle.latency.ledger.values().tolist() == (
            batched.latency.ledger.values().tolist()
        )


def assert_matches_closed_golden(side, cell):
    golden = CLOSED_GOLDEN[cell]
    served, records = run_closed(side, golden["jitter"])
    # Bit-exact event stream, estimates, clock, byte ledger, parameters.
    assert [
        (r.time, r.worker_id, r.step_index, r.synchronized) for r in records
    ] == golden["events"]
    # The estimate is NaN until every worker has reported.
    assert [
        repr(r.variance_estimate)
        for r in records
        if not math.isnan(r.variance_estimate)
    ] == golden["estimates"]
    assert served.virtual_time == golden["virtual_time"]
    assert served.timeline.compute_seconds == golden["compute_seconds"]
    assert served.cluster.fabric.comm_seconds == golden["comm_seconds"]
    assert served.cluster.total_bytes == golden["total_bytes"]
    assert served.sync_count == golden["sync_count"]
    assert (
        hashlib.sha256(served.cluster.parameter_matrix.tobytes()).hexdigest()
        == golden["parameters_sha256"]
    )
    assert served.updates_served == len(records) == 60


class TestDegenerateModeBitExactness:
    @pytest.mark.parametrize("side", SIDES)
    def test_closed_mode_reproduces_async_trainer(self, side):
        assert_matches_closed_golden(side, "stragglers")

    @pytest.mark.parametrize("side", SIDES)
    def test_closed_mode_pins_the_jitter_draw_order(self, side):
        assert_matches_closed_golden(side, "jittered")

    @pytest.mark.parametrize("side", SIDES)
    def test_closed_mode_latency_is_identically_zero(self, side):
        cluster = build_cluster(side)
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        served = ServedFDATrainer(
            cluster, monitor, 0.05, ServingConfig(arrival="closed")
        )
        served.serve_updates(20)
        summary = served.latency.summary()
        assert summary["count"] == 20
        assert summary["p99"] == 0.0
        assert summary["max"] == 0.0
        assert served.queue.conservation_holds()


class TestOpenLoopInvariants:
    @pytest.mark.parametrize("side", SIDES)
    def test_uniform_rule_matches_unweighted_averaging(self, side):
        """The uniform rule must take the exact np.mean path (None weights)."""

        def run(rule):
            cluster = build_cluster(side)
            monitor = make_monitor("linear", cluster.model_dimension, seed=3)
            config = ServingConfig(arrival="closed", staleness_rule=rule)
            trainer = ServedFDATrainer(cluster, monitor, 0.05, config)
            trainer.serve_updates(80)
            return trainer

        uniform = run("uniform")
        # The closed loop aggregates every update the instant its step
        # completes, so no update is ever stale: staleness-weighted weights
        # are all equal and the weighted path must land on the same
        # synchronization schedule.
        weighted = run("staleness-weighted")
        assert weighted._weights == [1.0] * len(weighted._weights)
        assert uniform.sync_count == weighted.sync_count > 0
        np.testing.assert_allclose(
            uniform.cluster.parameter_matrix,
            weighted.cluster.parameter_matrix,
            rtol=0,
            atol=1e-12,
        )

    def test_saturation_inflates_tail_latency(self):
        def run(rate):
            cluster = build_cluster()
            monitor = make_monitor("linear", cluster.model_dimension, seed=3)
            config = ServingConfig(
                arrival="poisson",
                arrival_rate=rate,
                staleness_rule="uniform",
                service_seconds=0.4,
            )
            trainer = ServedFDATrainer(cluster, monitor, float("inf"), config)
            trainer.serve_updates(200)
            return trainer.report()

        # Aggregate service rate is 1/0.4 = 2.5 updates/s; K=4 workers at
        # 0.25/s offer 1.0/s (stable), at 2.5/s offer 10/s (4x overload).
        stable = run(0.25)
        saturated = run(2.5)
        assert saturated.latency["p99"] > 10 * stable.latency["p99"]
        assert saturated.max_queue_depth > 10 * max(stable.max_queue_depth, 1)


class TestUnsupportedCompositionsAreRefused:
    """The event loop steps single workers and never opens a round, so the
    planes that act on rounds must be refused by name, not silently ignored."""

    CONFIGS = [ServingConfig(arrival="closed"), ServingConfig(arrival="poisson")]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.arrival)
    def test_a_crash_plan_is_refused(self, config):
        plan = FaultPlan(crash_rate=0.5, recovery_rounds=3, seed=1)
        cluster = build_cluster("batched", faults=plan)
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        with pytest.raises(ConfigurationError, match="ROADMAP item 2c"):
            ServedFDATrainer(cluster, monitor, 0.05, config)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.arrival)
    def test_a_partial_cohort_is_refused(self, config):
        cluster = build_cluster("batched")
        cluster.bind_members(Participation(mask=[True, True, False, True]))
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        with pytest.raises(ConfigurationError, match="ROADMAP item 2c"):
            ServedFDATrainer(cluster, monitor, 0.05, config)

    def test_loss_only_plans_and_full_cohorts_stay_legal(self):
        cluster = build_cluster(
            "batched", network="fl", faults=FaultPlan(loss_rate=0.2, seed=1)
        )
        cluster.bind_members(Participation(mask=[True] * 4, weights=[1.0, 2.0, 1.0, 1.0]))
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        trainer = ServedFDATrainer(cluster, monitor, 0.05, ServingConfig(arrival="closed"))
        assert trainer.serve_updates(12) == 12
        assert cluster.faults.log.retransmitted_bytes > 0


class TestServingReport:
    def test_to_dict_carries_every_scalar_field(self):
        cluster = build_cluster()
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        config = ServingConfig(
            arrival="poisson", arrival_rate=4.0, queue_capacity=1, service_seconds=1.0,
        )
        trainer = ServedFDATrainer(cluster, monitor, 0.05, config)
        trainer.serve_updates(10)
        report = trainer.report()
        row = report.to_dict()
        assert set(row) >= {f.name for f in fields(ServingReport)} - {"latency"}
        # Overload drops are visible to BENCH_serving.json consumers.
        assert row["updates_dropped"] == report.updates_dropped > 0
        assert row["latency_p99"] == report.latency["p99"]
