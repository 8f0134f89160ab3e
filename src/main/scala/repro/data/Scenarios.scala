package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.expand.{KnowledgeBase, SynthKB}
import scala.util.Random

/** Scenario = two corpora + ground truth + external resources, mirroring
  * the paper's five matching scenarios plus STS (DESIGN.md substitution 1).
  *
  * `queries` is the corpus whose documents we rank candidates for; the
  * `truth` DataFrame holds `(queryId, candId)` gold pairs.
  */
final case class Scenario(
    name: String,
    queries: Corpus,
    candidates: Corpus,
    truth: DataFrame,
    kb: KnowledgeBase,
    /** Lexical resource (abbrev/typo/acronym pairs, raw strings). */
    mergeDict: Seq[(String, String)],
    /** Paper window: 3 for text-to-data, 15 for text tasks. */
    window: Int,
    world: World,
    /** Taxonomy info for the Audit scenario (path metrics). */
    taxonomy: Option[TaxonomyInfo] = None)

final case class TaxonomyInfo(parentOf: Map[String, String], textOf: Map[String, String])

object Scenarios {

  private def norm(s: String): String = TextPrep.terms1(s).mkString("_")

  /** Normalize KB pair endpoints into graph-term form. */
  private def kbPairs(raw: Seq[(String, String)]): Seq[(String, String)] =
    raw.map { case (a, b) => (norm(a), norm(b)) }
      .filter { case (a, b) => a.nonEmpty && b.nonEmpty && a != b }

  // ------------------------------------------------------------------ IMDb

  final case class ImdbParams(
      nMovies: Int = 120,
      nDirectors: Int = 40,
      nActors: Int = 70,
      reviewsPerMovie: Int = 2,
      withTitle: Boolean = true,
      seed: Long = 123)

  /** Movie table (13 attrs; WT keeps `title`, NT drops it) + reviews.
    * Reviews mention actors (often abbreviated or surname-only), genre
    * *synonyms*, ratings, occasionally the director or a *co-star from a
    * different movie* — the relation only the KB can bridge (paper §III-A).
    */
  def imdb(spark: SparkSession, p: ImdbParams = ImdbParams()): Scenario = {
    import spark.implicits._
    val w = new World(p.seed)
    val r = new Random(p.seed * 31 + 5)
    val dirs = w.directors(p.nDirectors)
    val acts = w.actors(p.nActors)

    final case class Movie(
        id: Int, title: String, director: Person, a1: Person, a2: Person,
        genre: String, rating: String, year: Int, runtime: Int, country: String,
        language: String, budget: Int, votes: Int, score: Double)

    val movies = (0 until p.nMovies).map { i =>
      val title = (0 until 2 + r.nextInt(2)).map(_ => w.titleWords(r.nextInt(w.titleWords.length))).distinct.mkString(" ")
      val d  = dirs(r.nextInt(dirs.length))
      val a1 = acts(r.nextInt(acts.length))
      var a2 = acts(r.nextInt(acts.length))
      while (a2 == a1) a2 = acts(r.nextInt(acts.length))
      Movie(i, title, d, a1, a2,
        w.genres(r.nextInt(w.genres.length)), w.ratings(r.nextInt(w.ratings.length)),
        1960 + r.nextInt(60), 80 + r.nextInt(100), w.countries(r.nextInt(w.countries.length)),
        s"lang${r.nextInt(12)}", 1 + r.nextInt(200), 1000 + r.nextInt(100000),
        math.rint((1 + r.nextDouble() * 9) * 10) / 10)
    }

    val tableCols = Seq("docId", "title", "director", "actor1", "actor2", "genre", "rating",
      "year", "runtime", "country", "language", "budget", "votes", "score")
    val rows = movies.map { m =>
      (m.id.toString, m.title, m.director.full, m.a1.full, m.a2.full, m.genre, m.rating,
        m.year.toString, m.runtime.toString, m.country, m.language,
        m.budget.toString, m.votes.toString, m.score.toString)
    }
    var table = rows.toDF(tableCols: _*)
    if (!p.withTitle) table = table.drop("title")
    val tableCorpus = TableCorpus("movies", table, "docId")

    def filler(n: Int): String =
      (0 until n).map(_ => w.genericWords(r.nextInt(w.nGeneric))).mkString(" ")

    def mentionActor(a: Person): String = r.nextInt(3) match {
      case 0 => a.abbrev
      case 1 => a.full
      case _ => a.last
    }

    val reviews = movies.flatMap { m =>
      (0 until p.reviewsPerMovie).map { j =>
        val sents = scala.collection.mutable.ListBuffer.empty[String]
        sents += s"${filler(3)} ${mentionActor(m.a1)} ${filler(3)}"
        val genreWord = w.synonymOf.get(m.genre).filter(_ => r.nextDouble() < 0.5).getOrElse(m.genre)
        sents += s"${filler(2)} $genreWord film rated ${m.rating} ${filler(2)}"
        if (r.nextDouble() < 0.5) sents += s"directed by ${m.director.full} ${filler(3)}"
        else {
          // co-star bridge: an actor who shares a movie with a1 elsewhere
          val other = movies.find(o => o.id != m.id && (o.a1 == m.a1 || o.a2 == m.a1))
          other.foreach(o => sents += s"${filler(2)} also seen with ${o.a2.last} ${filler(2)}")
        }
        if (r.nextDouble() < 0.6 && p.withTitle) sents += s"${filler(2)} ${m.title} ${filler(2)}"
        if (r.nextDouble() < 0.5) sents += s"${mentionActor(m.a2)} ${filler(4)}"
        sents += filler(5)
        (s"r${m.id}_$j", sents.mkString(". "))
      }
    }
    val reviewCorpus = TextCorpus("reviews", reviews.toDF("docId", "text"))

    val truth = reviews.map { case (rid, _) => (rid, rid.drop(1).takeWhile(_ != '_')) }
      .toDF("queryId", "candId")

    // DBpedia stand-in: real relations + noise (sink nodes to prune).
    val kbRaw = movies.flatMap { m =>
      Seq(
        (m.director.full, m.title), (m.a1.full, m.title), (m.a2.full, m.title),
        (m.a1.last, m.a2.last), // co-star link
        (m.director.last, m.genre)) ++
        (0 until 3).map(k => (m.director.full, s"kbnoise${m.id}_$k"))
    }
    val dict = acts.map(a => (a.abbrev, a.full)) ++ dirs.map(d => (d.abbrev, d.full))

    Scenario(if (p.withTitle) "imdb-wt" else "imdb-nt",
      reviewCorpus, tableCorpus, truth, SynthKB(kbPairs(kbRaw)), dict.toSeq, window = 3, world = w)
  }

  // ----------------------------------------------------------- CoronaCheck

  final case class CoronaParams(
      nCountries: Int = 40,
      nMonths: Int = 12,
      nGen: Int = 300,
      nUsr: Int = 50,
      user: Boolean = false,
      seed: Long = 321)

  /** Country×month case table + claims generated from the data (Gen) or
    * typo-laden user claims (Usr). Claim values carry small perturbations
    * so numeric bucketing (FD rule) is what merges them with cell values.
    */
  def corona(spark: SparkSession, p: CoronaParams = CoronaParams()): Scenario = {
    import spark.implicits._
    val w = new World(p.seed)
    val r = new Random(p.seed * 17 + 3)
    val cs = w.countries.take(p.nCountries)
    // Periods are date-like tokens, OOV for the pretrained model — as the
    // paper's daily dates/values are for SentenceBERT. Countries stay in
    // the pretrained vocabulary (S-BE retains partial signal, §V-A).
    val ms = (0 until p.nMonths).map(i => s"p2020m$i")

    final case class Tup(id: String, country: String, month: String,
        newCases: Int, totalCases: Int, newDeaths: Int, totalDeaths: Int)
    val tuples = (for {
      (c, ci) <- cs.zipWithIndex
      (m, mi) <- ms.zipWithIndex
    } yield {
      val base = 500 + ((ci * 131 + mi * 37) % 9000)
      Tup(s"t${ci}_$mi", c, m, base, base * (mi + 1), base / 10, base * (mi + 1) / 10)
    })
    val table = tuples.map(t => (t.id, t.country, t.month, t.newCases.toString,
        t.totalCases.toString, t.newDeaths.toString, t.totalDeaths.toString))
      .toDF("docId", "country", "month", "newcases", "totalcases", "newdeaths", "totaldeaths")
    val tableCorpus = TableCorpus("corona", table, "docId")

    val measures = Seq(
      ("newcases", (t: Tup) => t.newCases, "new confirmed cases"),
      ("totalcases", (t: Tup) => t.totalCases, "total confirmed cases"),
      ("newdeaths", (t: Tup) => t.newDeaths, "new death cases"),
      ("totaldeaths", (t: Tup) => t.totalDeaths, "total death cases"))

    val n = if (p.user) p.nUsr else p.nGen
    val claims = (0 until n).map { i =>
      val t = tuples(r.nextInt(tuples.length))
      val (_, f, phrase) = measures(r.nextInt(measures.size))
      val v = f(t) + r.nextInt(5) - 2 // small perturbation; bucketing absorbs it
      val country = if (p.user && r.nextDouble() < 0.5) w.typo(t.country, i) else t.country
      val mention =
        if (r.nextDouble() < 0.15) w.regionOf(t.country) else country
      val text =
        if (r.nextDouble() < 0.2) {
          val t2 = tuples(r.nextInt(tuples.length))
          (s"number of $phrase in $mention is higher than ${t2.country} in ${t.month}",
            Seq(t.id, t2.id))
        } else (s"the $phrase in $mention in ${t.month} was about $v", Seq(t.id))
      (s"q$i", text._1, text._2)
    }
    val claimCorpus = TextCorpus(if (p.user) "corona-usr" else "corona-gen",
      claims.map(c => (c._1, c._2)).toDF("docId", "text"))
    val truth = claims.flatMap(c => c._3.map(t => (c._1, t))).toDF("queryId", "candId")

    // ConceptNet stand-in: region membership + noise.
    val kbRaw = cs.flatMap { c =>
      Seq((c, w.regionOf(c))) ++ (0 until 2).map(k => (c, s"kbnoise_${c}_$k"))
    }
    // Typos in the lexical resource (paper merges typos via pretrained sims).
    val dict = (0 until p.nUsr * 2).flatMap { i =>
      val c = cs(i % cs.length); Seq((w.typo(c, i), c))
    }
    Scenario(if (p.user) "corona-usr" else "corona-gen",
      claimCorpus, tableCorpus, truth, SynthKB(kbPairs(kbRaw)), dict, window = 3, world = w)
  }

  // ----------------------------------------------------------------- Audit

  final case class AuditParams(
      nLevel1: Int = 5,
      childrenPerNode: Int = 3,
      maxDepth: Int = 4,
      nDocs: Int = 320,
      seed: Long = 555)

  /** Concept taxonomy + short documents matched to 1..6 concepts; concept
    * texts use the audit vocabulary (OOV for the pretrained model) and
    * full acronym spellings while documents use the acronyms.
    */
  def audit(spark: SparkSession, p: AuditParams = AuditParams()): Scenario = {
    import spark.implicits._
    val w = new World(p.seed)
    val r = new Random(p.seed * 13 + 7)

    final case class Concept(id: String, text: String, parent: Option[String], depth: Int)
    val concepts = scala.collection.mutable.ListBuffer.empty[Concept]
    val root = Concept("c0", "aud200 aud201", None, 0)
    concepts += root
    var frontier = List(root)
    var nextId = 1
    while (frontier.nonEmpty) {
      val newFrontier = scala.collection.mutable.ListBuffer.empty[Concept]
      for (parent <- frontier if parent.depth < p.maxDepth) {
        val k = if (parent.depth == 0) p.nLevel1 else 1 + r.nextInt(p.childrenPerNode)
        (0 until k).foreach { _ =>
          val words = (0 until 2 + r.nextInt(2)).map(_ => w.auditWords(r.nextInt(w.auditWords.length)))
          val useAcr = r.nextDouble() < 0.25
          val text =
            if (useAcr) {
              val acr = w.acronyms.keys.toSeq.sorted.apply(r.nextInt(w.acronyms.size))
              s"${w.acronyms(acr)} ${words.head}" // full spelling in the taxonomy
            } else words.mkString(" ")
          val c = Concept(s"c$nextId", text, Some(parent.id), parent.depth + 1)
          nextId += 1
          concepts += c
          newFrontier += c
        }
      }
      frontier = newFrontier.toList
    }
    val all = concepts.toList
    val taxDf = all.map(c => (c.id, c.text, c.parent.orNull)).toDF("docId", "text", "parent")
    val taxonomy = TaxonomyCorpus("taxonomy", taxDf)
    val deep = all.filter(_.depth >= 2)

    def conceptTokens(c: Concept): Seq[String] = c.text.split(" ").toSeq

    val docs = (0 until p.nDocs).map { i =>
      val nGold = r.nextDouble() match {
        case d if d < 0.4 => 1
        case d if d < 0.5 => 2
        case _            => 3 + r.nextInt(4)
      }
      val gold = r.shuffle(deep).take(nGold)
      val sents = gold.map { c =>
        val toks = conceptTokens(c)
        // Use the acronym where the taxonomy spells it out.
        val mentioned = w.acronyms.find { case (_, full) => c.text.startsWith(full) } match {
          case Some((acr, _)) if r.nextDouble() < 0.7 => Seq(acr, toks.last)
          case _ => r.shuffle(toks).take(math.max(1, toks.size - 1))
        }
        val fillerA = (0 until 2).map(_ => w.auditWords(r.nextInt(w.auditWords.length)))
        val fillerG = (0 until 2).map(_ => w.genericWords(r.nextInt(w.nGeneric)))
        (mentioned ++ fillerA ++ fillerG).mkString(" ")
      }
      (s"d$i", sents.mkString(". "), gold.map(_.id))
    }
    val docCorpus = TextCorpus("audit-docs", docs.map(d => (d._1, d._2)).toDF("docId", "text"))
    val truth = docs.flatMap(d => d._3.map(g => (d._1, g))).toDF("queryId", "candId")

    // ConceptNet stand-in: sibling-concept word relations + noise.
    val kbRaw = all.filter(_.depth >= 1).flatMap { c =>
      val sibs = all.filter(o => o.parent == c.parent && o.id != c.id)
      sibs.take(2).map(s => (conceptTokens(c).head, conceptTokens(s).head)) ++
        Seq((conceptTokens(c).head, s"kbnoise_${c.id}"))
    }
    val dict = w.acronyms.toSeq // acronym → full form
    Scenario("audit", docCorpus, taxonomy, truth, SynthKB(kbPairs(kbRaw)), dict, window = 15,
      world = w,
      taxonomy = Some(TaxonomyInfo(
        all.flatMap(c => c.parent.map(c.id -> _)).toMap,
        all.map(c => c.id -> c.text).toMap)))
  }

  // ------------------------------------------------------- Snopes / Politi

  final case class ClaimsParams(
      nFacts: Int = 1500,
      nClaims: Int = 150,
      synProb: Double = 0.35,
      dropProb: Double = 0.2,
      nEntities: Int = 200,
      seed: Long = 777,
      name: String = "snopes")

  /** Verified-claim corpus + input claims that paraphrase a subset of the
    * facts (synonym substitution + token dropout + filler). Politifact
    * uses heavier paraphrasing and a larger fact corpus → lower scores,
    * as published.
    */
  def claims(spark: SparkSession, p: ClaimsParams): Scenario = {
    import spark.implicits._
    val w = new World(p.seed)
    val r = new Random(p.seed * 41 + 11)
    val ents = w.claimEntities(p.nEntities)

    val facts = (0 until p.nFacts).map { i =>
      val e1 = ents(r.nextInt(ents.length))
      val e2 = ents(r.nextInt(ents.length))
      val words = (0 until 8).map(_ => w.genericWords(r.nextInt(w.nGeneric)))
      (s"f$i", (Seq(e1) ++ words.take(4) ++ Seq(e2) ++ words.drop(4)).mkString(" "))
    }
    val claimDocs = (0 until p.nClaims).map { i =>
      val (fid, ftext) = facts(r.nextInt(facts.length))
      val toks = ftext.split(" ").toSeq
      val para = toks.flatMap { t =>
        if (r.nextDouble() < p.dropProb) None
        else w.synonymOf.get(t) match {
          case Some(s) if r.nextDouble() < p.synProb => Some(s)
          case _                                     => Some(t)
        }
      } ++ (0 until 3).map(_ => w.genericWords(r.nextInt(w.nGeneric)))
      (s"q$i", para.mkString(" "), fid)
    }
    val factCorpus = TextCorpus(s"${p.name}-facts", facts.toDF("docId", "text"))
    val claimCorpus = TextCorpus(s"${p.name}-claims",
      claimDocs.map(c => (c._1, c._2)).toDF("docId", "text"))
    val truth = claimDocs.map(c => (c._1, c._3)).toDF("queryId", "candId")

    // ConceptNet stand-in: synonym links + entity co-occurrence noise.
    val kbRaw = w.synonymOf.toSeq ++
      (0 until p.nEntities).map(i => (ents(i), s"kbnoise_e$i"))
    Scenario(p.name, claimCorpus, factCorpus, truth, SynthKB(kbPairs(kbRaw)),
      mergeDict = Seq.empty, window = 15, world = w)
  }

  // ------------------------------------------------------------------- STS

  final case class StsParams(nPairs: Int = 400, threshold: Int = 2, seed: Long = 999)

  /** Scored sentence pairs (0..5); the scenario at threshold k keeps the
    * pairs with score ≥ k as gold matches (paper §V-C). Perturbation
    * intensity decreases with the score.
    */
  def sts(spark: SparkSession, p: StsParams = StsParams()): Scenario = {
    import spark.implicits._
    val w = new World(p.seed)
    val r = new Random(p.seed * 53 + 29)

    final case class Pair(id: Int, left: String, right: String, score: Int)
    val pairs = (0 until p.nPairs).map { i =>
      val toks = (0 until 10).map(_ => w.genericWords(r.nextInt(w.nGeneric)))
      val score = r.nextInt(6)
      val right = score match {
        case 5 => toks
        case 4 => toks.map(t => w.synonymOf.get(t).filter(_ => r.nextDouble() < 0.3).getOrElse(t))
        case 3 => toks.map(t => w.synonymOf.get(t).filter(_ => r.nextDouble() < 0.6).getOrElse(t))
          .patch(0, Seq(w.genericWords(r.nextInt(w.nGeneric))), 1)
        case 2 => toks.take(5) ++ (0 until 5).map(_ => w.genericWords(r.nextInt(w.nGeneric)))
        case _ => (0 until 10).map(_ => w.genericWords(r.nextInt(w.nGeneric)))
      }
      Pair(i, toks.mkString(" "), right.mkString(" "), score)
    }
    val kept = pairs.filter(_.score >= p.threshold)
    val leftCorpus = TextCorpus("sts-left",
      kept.map(q => (s"l${q.id}", q.left)).toDF("docId", "text"))
    val rightCorpus = TextCorpus("sts-right",
      kept.map(q => (s"r${q.id}", q.right)).toDF("docId", "text"))
    val truth = kept.map(q => (s"l${q.id}", s"r${q.id}")).toDF("queryId", "candId")
    val kbRaw = w.synonymOf.toSeq
    Scenario(s"sts-k${p.threshold}", leftCorpus, rightCorpus, truth,
      SynthKB(kbPairs(kbRaw)), mergeDict = Seq.empty, window = 15, world = w)
  }
}
