//! The benchmark's own input generator.
//!
//! Everything the system under test receives — profile texts, documents,
//! which clients are sampled for checking — is drawn here from `--seed`
//! through a private SplitMix64, so the same seed gives the same inputs
//! on every commit and the system never sees the seed itself. A digest
//! over every generated profile text and document is printed with each
//! run so two runs can be shown to have used identical inputs.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

const CONSONANTS: &[u8] = b"bdfgklmnprstvz";
const VOWELS: &[u8] = b"aeiou";

/// The `i`-th synthetic word: four consonant-vowel syllables, so every
/// word is eight letters and no word is a substring of another — a
/// `*word*` wildcard then matches exactly the values containing that
/// word. `class` keeps the vocabularies of different attributes apart
/// (the first syllable encodes it).
pub fn word(class: Vocabulary, i: usize) -> String {
    let syllables = CONSONANTS.len() * VOWELS.len();
    assert!(i < syllables.pow(3), "vocabulary index {i} out of range");
    let mut out = String::with_capacity(8);
    for s in [
        class as usize,
        i % syllables,
        i / syllables % syllables,
        i / (syllables * syllables),
    ] {
        out.push(CONSONANTS[s / VOWELS.len()] as char);
        out.push(VOWELS[s % VOWELS.len()] as char);
    }
    out
}

/// Which attribute a synthetic word belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vocabulary {
    Creator = 0,
    Subject = 1,
    Term = 2,
    Title = 3,
}

/// One generated document, in the benchmark's own terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    pub id: String,
    pub title: String,
    pub creator: String,
    pub subject: String,
    pub text: String,
}

impl Doc {
    /// Every word of the document, over all its attributes.
    pub fn words(&self) -> impl Iterator<Item = &str> {
        [&self.title, &self.creator, &self.subject, &self.text]
            .into_iter()
            .flat_map(|field| field.split(' '))
    }
}

/// One generated publish: which collection is built and from what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publish {
    /// Index into the workload's publisher list.
    pub publisher: usize,
    pub docs: Vec<Doc>,
}

/// What an event must contain for a profile to match it, as the
/// generator knows by construction. The oracle evaluates a profile only
/// against events that pass this test; it never decides a match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Needs {
    /// A unique equality on a value no event ever carries: never matches.
    Nothing,
    /// One of the event's documents carries this word (as creator,
    /// subject, title word or text word).
    Word(String),
    /// Constrains the collection only: a candidate for every event.
    Anchor,
}

/// One generated subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    /// Index into the workload's subscriber-server list.
    pub server: usize,
    pub client: u64,
    pub text: String,
    pub needs: Needs,
}

/// Vocabulary sizes and document shape of a workload. The sizes set the
/// share of profiles an event matches; `workloads.rs` states the target.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub creators: usize,
    pub subjects: usize,
    pub terms: usize,
    pub title_words: usize,
    pub docs_per_event: usize,
    /// Nominal words of running text per document (the excerpt an event
    /// carries is its first 200 characters, about 22 words).
    pub words_per_doc: usize,
}

/// Document ids cycle through this many names, so the publisher's store
/// stays the same size however long the run is.
pub const DOC_POOL: usize = 512;

/// Draws documents and profile texts for one workload.
pub struct Generator {
    rng: SplitMix64,
    shape: Shape,
    creators: Zipf,
    subjects: Zipf,
    terms: Zipf,
    title_words: Zipf,
    next_doc: usize,
}

impl Generator {
    pub fn new(seed: u64, shape: Shape) -> Self {
        Generator {
            rng: SplitMix64::new(seed),
            shape,
            creators: Zipf::new(shape.creators),
            subjects: Zipf::new(shape.subjects),
            terms: Zipf::new(shape.terms),
            title_words: Zipf::new(shape.title_words),
            next_doc: 0,
        }
    }

    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    fn doc(&mut self) -> Doc {
        let id = format!("d{:03}", self.next_doc % DOC_POOL);
        self.next_doc += 1;
        let title = (0..3)
            .map(|_| word(Vocabulary::Title, self.title_words.sample(&mut self.rng)))
            .collect::<Vec<_>>()
            .join(" ");
        // Between half and one and a half times the nominal length, so
        // that some excerpts fall short of 200 characters and event
        // sizes differ.
        let words = self.shape.words_per_doc / 2 + self.rng.below(self.shape.words_per_doc + 1);
        let text = (0..words)
            .map(|_| word(Vocabulary::Term, self.terms.sample(&mut self.rng)))
            .collect::<Vec<_>>()
            .join(" ");
        Doc {
            id,
            title,
            creator: word(Vocabulary::Creator, self.creators.sample(&mut self.rng)),
            subject: word(Vocabulary::Subject, self.subjects.sample(&mut self.rng)),
            text,
        }
    }

    /// The next batch of documents a publisher builds.
    pub fn docs(&mut self) -> Vec<Doc> {
        (0..self.shape.docs_per_event).map(|_| self.doc()).collect()
    }

    /// A live profile of the mixed population, as (text, needed word):
    /// 4/9 creator equality, 2/9 subject equality, 2/9 `text ? (term)`,
    /// 1/9 title wildcard — the 40/20/20/10 split of the non-cold 90 %.
    /// Attribute values are drawn uniformly, so interest is spread over
    /// the whole vocabulary while documents concentrate on its head.
    pub fn mixed_profile(&mut self, anchor: &str) -> (String, String) {
        let shape = self.shape;
        let (word, residual) = match self.rng.below(9) {
            0..=3 => {
                let w = word(Vocabulary::Creator, self.rng.below(shape.creators));
                (w.clone(), format!(r#"dc.Creator = "{w}""#))
            }
            4..=5 => {
                let w = word(Vocabulary::Subject, self.rng.below(shape.subjects));
                (w.clone(), format!(r#"dc.Subject = "{w}""#))
            }
            6..=7 => {
                let w = word(Vocabulary::Term, self.rng.below(shape.terms));
                (w.clone(), format!("text ? ({w})"))
            }
            _ => {
                let w = word(Vocabulary::Title, self.rng.below(shape.title_words));
                (w.clone(), format!(r#"dc.Title ~ "*{w}*""#))
            }
        };
        (format!(r#"collection = "{anchor}" AND {residual}"#), word)
    }

    /// A hot profile, as (text, needed word): equality on the creator of
    /// the given Zipf rank.
    pub fn hot_profile(anchor: &str, rank: usize) -> (String, String) {
        let w = word(Vocabulary::Creator, rank);
        (
            format!(r#"collection = "{anchor}" AND dc.Creator = "{w}""#),
            w,
        )
    }
}

/// A cold profile: indexed equality on a host name nothing publishes from.
pub fn cold_profile(server: usize, i: usize) -> String {
    format!(r#"host = "cold-{server}-{i}""#)
}

/// FNV-1a 64 over everything generated, field by field with separators.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(&[0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn feed_doc(&mut self, d: &Doc) {
        for field in [&d.id, &d.title, &d.creator, &d.subject, &d.text] {
            self.feed(field);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        creators: 50,
        subjects: 20,
        terms: 300,
        title_words: 40,
        docs_per_event: 2,
        words_per_doc: 40,
    };

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut g = Generator::new(seed, SHAPE);
            (g.docs(), g.mixed_profile("Hamilton.D"))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn words_are_distinct_and_never_contain_one_another() {
        let words: Vec<String> = (0..500).map(|i| word(Vocabulary::Title, i)).collect();
        for (i, a) in words.iter().enumerate() {
            assert_eq!(a.len(), 8);
            assert!(words.iter().skip(i + 1).all(|b| a != b));
        }
        // Vocabularies of different attributes share no word either.
        assert_ne!(word(Vocabulary::Creator, 3), word(Vocabulary::Subject, 3));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(100);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn a_mixed_profile_names_the_word_it_needs() {
        let mut g = Generator::new(3, SHAPE);
        for _ in 0..50 {
            let (text, word) = g.mixed_profile("Hamilton.D");
            assert!(text.contains(&word), "{text} lacks {word}");
        }
    }

    #[test]
    fn document_ids_cycle_through_the_pool() {
        let mut g = Generator::new(1, SHAPE);
        let first = g.docs()[0].id.clone();
        for _ in 1..DOC_POOL / SHAPE.docs_per_event {
            g.docs();
        }
        assert_eq!(g.docs()[0].id, first);
    }
}
