"""Synthetic data: landmark clusters, silhouettes, phrases, gesture streams.

Everything here is procedurally generated and fully determined by integer
seeds, so tests and demos never depend on external datasets. Landmark
classes are Gaussian clusters around random centroids; silhouette classes
are class-keyed polygon glyphs with a satellite disc; text corruption draws
one error per string from a configurable mix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import CNN_CLASSES, LETTERS, RFC_CLASSES, RFC_INDEX, SIGNABLE, SPACE
from .landmarks import N_FEATURES, LandmarkFrame
from .rng import substream

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# Multipliers coprime with 27, so every key yields a bijective class->shape map.
_SHAPE_MULTS = (1, 2, 4, 5, 7, 8)
GLYPH_SIZE = 32  # side of every silhouette and stream frame: the CNN's input


@dataclass(frozen=True)
class LandmarkDatasetSpec:
    """Gaussian landmark clusters: one centroid per class, isotropic spread."""

    per_class: int = 100
    spread: float = 0.05
    seed: int = 0
    classes: tuple[str, ...] = RFC_CLASSES

    def __post_init__(self):
        if self.per_class < 1:
            raise ValueError(f"per_class must be >= 1, got {self.per_class}")
        if not self.spread > 0:
            raise ValueError(f"spread must be > 0, got {self.spread}")
        if len(self.classes) < 2:
            raise ValueError("need at least 2 classes")


@dataclass(frozen=True)
class SilhouetteDatasetSpec:
    """Class-keyed 'asl' polygon silhouettes with per-sample jitter."""

    per_class: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.per_class < 1:
            raise ValueError(f"per_class must be >= 1, got {self.per_class}")


def class_centroid(seed: int, class_index: int) -> np.ndarray:
    """Centroid of a landmark class: uniform in [0, 1]^126."""
    return substream(seed, "centroid", class_index).uniform(0.0, 1.0, N_FEATURES)


def synth_landmarks(spec: LandmarkDatasetSpec) -> list[LandmarkFrame]:
    """Generate per_class samples per class, class-major order."""
    frames: list[LandmarkFrame] = []
    for k, label in enumerate(spec.classes):
        centroid = class_centroid(spec.seed, k)
        noise = substream(spec.seed, "landmark", k).normal(
            0.0, spec.spread, (spec.per_class, N_FEATURES)
        )
        frames.extend(LandmarkFrame(row, label) for row in centroid + noise)
    return frames


def frames_to_arrays(
    frames: list[LandmarkFrame], classes: tuple[str, ...] = RFC_CLASSES
) -> tuple[np.ndarray, np.ndarray]:
    """Stack frames into (N, 126) features and integer class indices."""
    index = {name: i for i, name in enumerate(classes)}
    X = np.stack([f.values for f in frames])
    y = np.array([index[f.label] for f in frames], dtype=np.int64)
    return X, y


def _shape_params(class_index: int, key: str) -> tuple[int, float, float, float]:
    """Deterministic (sides, radius_frac, rotation, satellite_angle) for a class.

    The key string permutes the class->shape assignment so different gesture
    alphabets (e.g. input vs output sign language) get different glyphs.
    """
    keysum = sum(key.encode("utf-8"))
    mult = _SHAPE_MULTS[keysum % len(_SHAPE_MULTS)]
    k = (class_index * mult + keysum) % 27
    sides = 3 + k % 6
    radius_frac = 0.20 + 0.06 * ((k // 6) % 3)
    rotation = GOLDEN_ANGLE * k
    sat_angle = rotation + 2.0 * np.pi * ((k * 7) % 27) / 27.0
    return sides, radius_frac, rotation, sat_angle


def render_silhouette(
    class_index: int,
    size: int,
    key: str,
    jitter_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Render one binary (0/255) glyph: a regular polygon plus a satellite disc.

    Foreground fraction stays within (0.01, 0.60) by construction: the largest
    jittered polygon radius is 0.346 * size and the smallest 0.184 * size.
    """
    sides, radius_frac, rotation, sat_angle = _shape_params(class_index, key)
    cx = cy = size / 2.0
    radius = radius_frac * size
    if jitter_rng is not None:
        cx += jitter_rng.uniform(-0.05, 0.05) * size
        cy += jitter_rng.uniform(-0.05, 0.05) * size
        radius *= jitter_rng.uniform(0.92, 1.08)
        rotation += jitter_rng.uniform(-0.1, 0.1)
    px, py = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5, indexing="xy")

    angles = rotation + 2.0 * np.pi * np.arange(sides) / sides
    vx = cx + radius * np.cos(angles)
    vy = cy + radius * np.sin(angles)
    pos = np.ones((size, size), dtype=bool)
    neg = np.ones((size, size), dtype=bool)
    for j in range(sides):
        x1, y1 = vx[j], vy[j]
        x2, y2 = vx[(j + 1) % sides], vy[(j + 1) % sides]
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        pos &= cross >= 0
        neg &= cross <= 0
    mask = pos | neg

    sat_dist = 0.38 * size
    sat_r = 0.07 * size
    sx = cx + sat_dist * np.cos(sat_angle)
    sy = cy + sat_dist * np.sin(sat_angle)
    mask |= (px - sx) ** 2 + (py - sy) ** 2 <= sat_r**2
    return np.where(mask, 255, 0).astype(np.uint8)


def synth_silhouettes(spec: SilhouetteDatasetSpec) -> tuple[np.ndarray, list[str]]:
    """Generate per_class jittered glyphs per CNN class, class-major; BLANK renders all-black."""
    images = np.zeros((len(CNN_CLASSES) * spec.per_class, GLYPH_SIZE, GLYPH_SIZE), dtype=np.uint8)
    labels: list[str] = []
    pos = 0
    for k, label in enumerate(CNN_CLASSES):
        rng = substream(spec.seed, "silhouette", "asl", k)
        for _ in range(spec.per_class):
            if label != "BLANK":
                images[pos] = render_silhouette(k, GLYPH_SIZE, "asl", jitter_rng=rng)
            pos += 1
            labels.append(label)
    return images, labels


def synth_atlas(size: int) -> dict[str, np.ndarray]:
    """Canonical (jitter-free) 'isl' glyph per letter plus an all-black SPACE frame."""
    atlas = {label: render_silhouette(k, size, "isl") for k, label in enumerate(LETTERS)}
    atlas[SPACE] = np.zeros((size, size), dtype=np.uint8)
    return atlas


# Phrase corpus for the text corrector: uppercase letters and spaces only,
# every word at least 3 letters so single-character errors never erase a word.
PHRASES: tuple[str, ...] = (
    "THANK YOU",
    "THANK YOU VERY MUCH",
    "GOOD MORNING",
    "GOOD EVENING",
    "GOOD NIGHT",
    "HOW ARE YOU",
    "NICE MEETING YOU",
    "SEE YOU SOON",
    "SEE YOU LATER",
    "WELCOME HOME",
    "HAVE FUN TODAY",
    "TAKE CARE FRIEND",
    "HELLO DEAR FRIEND",
    "HAPPY BIRTHDAY FRIEND",
    "CONGRATULATIONS DEAR SISTER",
    "THE FAMILY EATS DINNER",
    "MOTHER COOKS RICE",
    "FATHER READS THE PAPER",
    "SISTER SINGS SONGS",
    "BROTHER PLAYS CRICKET",
    "GRANDMOTHER TELLS STORIES",
    "GRANDFATHER WALKS SLOWLY",
    "THE BABY SLEEPS NOW",
    "AUNT BAKES SWEET BREAD",
    "UNCLE DRIVES THE CAR",
    "COUSINS VISIT EVERY SUMMER",
    "THE TEACHER WRITES NOTES",
    "STUDENTS READ BOOKS",
    "THE CLASS STARTS EARLY",
    "SCHOOL ENDS BEFORE NOON",
    "THE EXAM WAS EASY",
    "HOMEWORK TAKES TIME",
    "THE LIBRARY STAYS QUIET",
    "LESSONS BEGIN AFTER LUNCH",
    "THE CHILDREN LEARN QUICKLY",
    "TOY BOOK",
    "THE TOY BOOK HAS PICTURES",
    "SHE READS THE TOY BOOK",
    "THE SOUP TASTES GOOD",
    "FRESH BREAD SMELLS NICE",
    "THE TEA GROWS COLD",
    "MILK COMES FROM COWS",
    "THE MANGO RIPENS FAST",
    "RICE FEEDS MANY PEOPLE",
    "THE KITCHEN FEELS WARM",
    "WATER BOILS QUICKLY",
    "DINNER WAITS FOR YOU",
    "THE APPLE FELL DOWN",
    "THE CAT SLEEPS ALL DAY",
    "THE DOG BARKS LOUDLY",
    "BIRDS SING EVERY MORNING",
    "THE COW GIVES MILK",
    "FISH SWIM UPSTREAM",
    "THE HORSE RUNS FAST",
    "ELEPHANTS NEVER FORGET",
    "THE GOAT CLIMBS HILLS",
    "LIONS REST UNDER TREES",
    "THE MOUSE HIDES QUICKLY",
    "THE SUN RISES EARLY",
    "RAIN FALLS SOFTLY",
    "THE WIND BLOWS HARD",
    "CLOUDS COVER THE SKY",
    "THE MOON SHINES BRIGHT",
    "STARS FILL THE NIGHT",
    "THE RIVER FLOWS SOUTH",
    "SNOW MELTS EVERY SPRING",
    "THE FOREST GROWS THICK",
    "FLOWERS BLOOM EVERYWHERE",
    "THE BUS ARRIVES LATE",
    "THE TRAIN LEAVES SOON",
    "THE MARKET OPENS EARLY",
    "THE SHOP CLOSES LATE",
    "THE PHONE RINGS TWICE",
    "THE CLOCK TICKS LOUDLY",
    "THE DOOR STAYS OPEN",
    "THE WINDOW FACES EAST",
    "LIGHTS TURN OFF LATE",
    "THE ROAD BENDS LEFT",
    "YOU LOOK VERY HAPPY",
    "THEY DANCE TOGETHER",
    "SHE SMILES OFTEN",
    "HER VOICE SOUNDS SWEET",
    "HIS HANDS MOVE FAST",
    "WORK ENDS BEFORE DARK",
    "THE TEAM WINS AGAIN",
    "THE GAME LASTS HOURS",
    "MUSIC CALMS THE MIND",
    "SLEEP HEALS THE BODY",
    "THE PAINTER MIXES COLORS",
    "THE FARMER PLANTS SEEDS",
    "THE DOCTOR HELPS PATIENTS",
    "THE NURSE CHECKS CHARTS",
    "THE DRIVER HONKS TWICE",
    "THE TAILOR SEWS SHIRTS",
    "THE BAKER SELLS CAKES",
    "THE WRITER DRAFTS PAGES",
    "THE SINGER HOLDS NOTES",
    "THE DANCER SPINS AROUND",
    "GREEN LEAVES FALL SLOWLY",
    "BLUE WAVES CRASH LOUD",
    "RED KITES FLY HIGH",
    "YELLOW LAMPS GLOW WARM",
    "WHITE WALLS LOOK CLEAN",
    "BLACK CROWS GATHER HERE",
    "BROWN BEARS CATCH FISH",
    "PINK SHELLS LINE BEACHES",
    "SILVER COINS SHINE BRIGHT",
    "GOLDEN FIELDS STRETCH FAR",
    "PLEASE SPEAK SLOWLY",
    "PLEASE WAIT OUTSIDE",
    "PLEASE COME INSIDE",
    "PLEASE CALL TOMORROW",
    "PLEASE HELP THE GUEST",
    "KINDLY SHARE THE FOOD",
    "KINDLY CLOSE THE GATE",
    "KINDLY BRING SOME WATER",
    "KINDLY HOLD THE ROPE",
    "KINDLY PASS THE SALT",
    "THE VILLAGE SLEEPS EARLY",
    "THE CITY NEVER STOPS",
    "THE TEMPLE BELLS RING",
    "THE BRIDGE SPANS WIDE",
    "THE TOWER STANDS TALL",
    "THE GARDEN NEEDS RAIN",
    "THE WELL RUNS DEEP",
    "THE FENCE KEEPS SHEEP",
    "THE BARN SMELLS SWEET",
    "THE FIELD YIELDS WHEAT",
    "MONDAY BRINGS MEETINGS",
    "TUESDAY FEELS CALM",
    "FRIDAY ENDS QUICKLY",
    "SUNDAY MEANS REST",
    "WINTER BRINGS LONG NIGHTS",
    "SUMMER BRINGS RIPE FRUIT",
    "AUTUMN PAINTS THE TREES",
    "SPRING WAKES THE LAND",
    "THE STORY ENDS WELL",
    "THE MOVIE STARTS SOON",
    "THE RADIO PLAYS SONGS",
    "THE LETTER CAME TODAY",
    "THE PARCEL WEIGHS LITTLE",
    "THE TICKET COSTS MORE",
    "THE WALLET FEELS LIGHT",
    "THE UMBRELLA KEEPS DRY",
    "GRANDPARENTS LOVE VISITS",
    "NEIGHBORS GREET WARMLY",
    "TRAVELERS NEED MAPS",
    "SOLDIERS MARCH PROUDLY",
    "FISHERMEN MEND NETS",
    "SHEPHERDS COUNT FLOCKS",
)


def sample_phrases(n: int, rng: np.random.Generator) -> list[str]:
    """Draw n phrases from the corpus with replacement."""
    idx = rng.integers(0, len(PHRASES), size=n)
    return [PHRASES[i] for i in idx]


@dataclass(frozen=True)
class ErrorMix:
    """Probabilities for the single error injected per string."""

    p_substitution: float = 0.35
    p_missing: float = 0.25
    p_extra: float = 0.20
    p_swap: float = 0.20

    def __post_init__(self):
        probs = (self.p_substitution, self.p_missing, self.p_extra, self.p_swap)
        if any(p < 0 for p in probs):
            raise ValueError(f"error probabilities must be >= 0, got {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"error probabilities must sum to 1, got {sum(probs)}")


ERROR_KINDS = ("substitution", "missing", "extra", "swap")


def corrupt_text(text: str, mix: ErrorMix, rng: np.random.Generator) -> tuple[str, str]:
    """Inject exactly one error; returns (corrupted, kind).

    Character errors hit letter positions only, so word boundaries survive.
    A swap exchanges two adjacent words; single-word input renormalizes the
    mix over the three character error kinds.
    """
    words = text.split()
    letter_pos = [i for i, c in enumerate(text) if c.isalpha()]
    if not letter_pos:
        raise ValueError(f"nothing to corrupt in {text!r}")
    probs = np.array([mix.p_substitution, mix.p_missing, mix.p_extra, mix.p_swap])
    if len(words) < 2:
        probs[3] = 0.0
        probs = probs / probs.sum()
    kind = ERROR_KINDS[rng.choice(4, p=probs)]
    if kind == "swap":
        j = int(rng.integers(0, len(words) - 1))
        words[j], words[j + 1] = words[j + 1], words[j]
        return " ".join(words), kind
    i = letter_pos[int(rng.integers(0, len(letter_pos)))]
    if kind == "substitution":
        pool = [c for c in LETTERS if c != text[i]]
        return text[:i] + pool[int(rng.integers(0, len(pool)))] + text[i + 1 :], kind
    if kind == "missing":
        return text[:i] + text[i + 1 :], kind
    extra = LETTERS[int(rng.integers(0, len(LETTERS)))]
    return text[: i + 1] + extra + text[i + 1 :], kind


@dataclass(frozen=True)
class StreamSpec:
    """Frame stream for a text: hold frames per character, rest frames between."""

    text: str
    hold: int = 5
    rest: int = 4
    dataset_seed: int = 0
    stream_seed: int = 1
    spread: float = 0.05

    def __post_init__(self):
        if not self.text:
            raise ValueError("stream text must be non-empty")
        bad = set(self.text) - SIGNABLE
        if bad:
            raise ValueError(f"stream text must be uppercase letters and spaces, got {sorted(bad)}")
        if self.hold < 1:
            raise ValueError(f"hold must be >= 1, got {self.hold}")
        if self.rest < 0:
            raise ValueError(f"rest must be >= 0, got {self.rest}")


def synth_stream(spec: StreamSpec) -> tuple[np.ndarray, np.ndarray]:
    """Landmark and silhouette frames for a signed text.

    Letters produce class landmarks plus the class glyph; a space produces
    SPACE landmarks over a black frame (the silhouette model sees a rest);
    rest gaps produce uniform noise landmarks over a black frame.
    """
    lm_rows: list[np.ndarray] = []
    imgs: list[np.ndarray] = []
    black = np.zeros((GLYPH_SIZE, GLYPH_SIZE), dtype=np.uint8)
    frame = 0
    for ch in spec.text:
        k = RFC_INDEX[SPACE] if ch == " " else RFC_INDEX[ch]
        centroid = class_centroid(spec.dataset_seed, k)
        for _ in range(spec.hold):
            noise = substream(spec.stream_seed, "hold", frame).normal(0.0, spec.spread, N_FEATURES)
            lm_rows.append(centroid + noise)
            if ch == " ":
                imgs.append(black)
            else:
                jitter = substream(spec.stream_seed, "glyph", frame)
                imgs.append(render_silhouette(k, GLYPH_SIZE, "asl", jitter_rng=jitter))
            frame += 1
        for _ in range(spec.rest):
            lm_rows.append(substream(spec.stream_seed, "rest", frame).uniform(0.0, 1.0, N_FEATURES))
            imgs.append(black)
            frame += 1
    return np.stack(lm_rows), np.stack(imgs)
