package repro.data

import org.apache.spark.sql.SparkSession
import repro.core.TextPrep
import repro.embed.Embeddings
import scala.util.Random

/** A person entity (director/actor) with a "B. Willis"-style abbreviation. */
final case class Person(first: String, last: String) {
  def full: String   = s"$first $last"
  def abbrev: String = s"${first.head}. $last"
}

/** Deterministic synthetic *world* behind every scenario (DESIGN.md
  * substitution 1–3).
  *
  * The world provides:
  *  - a **generic vocabulary** with synonym pairs — the language that a
  *    generic "pretrained" model (our SentenceBERT/Wikipedia2Vec stand-in)
  *    knows about;
  *  - **domain entities** (directors, actors, movie titles, countries,
  *    audit concepts…) that are *absent* from the generic vocabulary,
  *    reproducing the paper's domain-specific-terms challenge;
  *  - lexical resources: abbreviation / typo / acronym dictionaries
  *    (the WordNet stand-in) and a synonym list for γ calibration;
  *  - a **generic corpus** on which the pretrained model is trained, built
  *    so synonym pairs share contexts (their vectors end up close).
  *
  * Everything is deterministic in `seed`.
  */
final class World(val seed: Long = 123) extends Serializable {

  private def rng(salt: Long) = new Random(seed * 7919 + salt)

  // ---- generic language ---------------------------------------------------

  val nGeneric = 600
  val nSyn     = 150

  /** Base generic words; the first `nSyn` have a synonym twin. */
  val genericWords: IndexedSeq[String] = (0 until nGeneric).map(i => s"gen$i")
  val synonymOf: Map[String, String]   = (0 until nSyn).map(i => s"gen$i" -> s"syn$i").toMap

  /** Stemmed synonym pairs — the calibration list for γ (paper: 17K
    * WordNet pairs).
    */
  def synonymPairsStemmed: Seq[(String, String)] =
    synonymOf.toSeq.map { case (a, b) => (TextPrep.stem(a), TextPrep.stem(b)) }

  // Countries and months are *common* entities the pretrained model knows
  // (CoronaCheck's S-BE does respectably in the paper).
  val countries: IndexedSeq[String] = (0 until 40).map(i => s"norland$i")
  val months: IndexedSeq[String] =
    IndexedSeq("january", "february", "march", "april", "may2", "june", "july",
      "august", "september", "october", "november", "december")
  val regions: IndexedSeq[String] = (0 until 8).map(i => s"region$i")
  def regionOf(c: String): String = regions(countries.indexOf(c) % regions.length)

  /** Sentence generator for the generic pretrained corpus.
    *
    * Sentences are *topical* — each draws from one 20-word topic slice of
    * the vocabulary — so the trained vectors have real geometry: synonyms
    * (substituted interchangeably in the same contexts) end up closest,
    * same-topic words moderately close, cross-topic words far. A flat
    * uniform draw would collapse every vector onto the frequency axis.
    */
  def genericCorpus(nSentences: Int = 6000, sentLen: Int = 10): Seq[Seq[String]] = {
    val r = rng(1)
    val topicSize = 20
    val nTopics = nGeneric / topicSize
    val commonEntities = countries ++ months ++ regions
    (0 until nSentences).map { _ =>
      val topic = r.nextInt(nTopics)
      val raw = (0 until sentLen).map { _ =>
        if (r.nextDouble() < 0.1) commonEntities(r.nextInt(commonEntities.length))
        else {
          val w = genericWords(topic * topicSize + r.nextInt(topicSize))
          synonymOf.get(w) match {
            case Some(s) if r.nextDouble() < 0.5 => s
            case _                               => w
          }
        }
      }
      raw.flatMap(w => TextPrep.terms1(w))
    }
  }

  // ---- movie domain (IMDb scenario) --------------------------------------

  private val letters = "abcdefghijklmnopqrstuvwxyz"
  def directors(n: Int): IndexedSeq[Person] =
    (0 until n).map(i => Person(s"${letters(i % 26)}dirf$i", s"dirl$i"))
  def actors(n: Int): IndexedSeq[Person] =
    (0 until n).map(i => Person(s"${letters(i % 26)}actf$i", s"actl$i"))

  /** Title vocabulary — some words shared across titles (ambiguity). */
  val titleWords: IndexedSeq[String] = (0 until 120).map(i => s"tword$i")
  /** Genres are generic words with synonyms: pretrained knows them and
    * reviews can use the synonym form ("Drama" vs "comedy" mismatch in
    * the paper's Example 1).
    */
  val genres: IndexedSeq[String]  = (0 until 8).map(i => s"gen$i")
  val ratings: IndexedSeq[String] = IndexedSeq("ratg", "ratpg", "ratpg13", "ratr", "ratnc17")

  // ---- audit domain -------------------------------------------------------

  val auditWords: IndexedSeq[String] = (0 until 220).map(i => s"aud$i")
  /** Acronym → full form (e.g. PDCA → plan do check act). */
  val acronyms: Map[String, String] =
    (0 until 25).map(i => s"acr$i" -> s"aud${3 * i} aud${3 * i + 1} aud${3 * i + 2}").toMap

  // ---- text-to-text domain ------------------------------------------------

  /** Named entities for claims (Snopes/Politifact). */
  def claimEntities(n: Int): IndexedSeq[String] = (0 until n).map(i => s"sent$i")

  /** Typo model: swap two interior characters (deterministic per word+salt). */
  def typo(word: String, salt: Int): String = {
    if (word.length < 4) return word + "x"
    val r = rng(1000 + salt + word.hashCode)
    val i = 1 + r.nextInt(word.length - 3)
    val chars = word.toCharArray
    val t = chars(i); chars(i) = chars(i + 1); chars(i + 1) = t
    new String(chars)
  }
}

/** Pretrained-model cache: one skip-gram model per (world seed, dim),
  * trained on the world's generic corpus with stemmed tokens — the
  * SentenceBERT / Wikipedia2Vec substitute. Training runs on the driver
  * ([[Embeddings.train]]) and starts no Spark job.
  */
object Pretrained {
  private val cache = scala.collection.mutable.Map.empty[(Long, Int), Map[String, Array[Float]]]

  def vectors(spark: SparkSession, world: World, dim: Int = 48): Map[String, Array[Float]] =
    cache.getOrElseUpdate((world.seed, dim), train(world, dim))

  /** The model [[vectors]] caches, trained afresh. */
  private[data] def train(world: World, dim: Int): Map[String, Array[Float]] =
    Embeddings.train(world.genericCorpus().map(_.toArray),
      Embeddings.Config(vectorSize = dim, window = 5, minCount = 2, iterations = 3, seed = world.seed))
}
